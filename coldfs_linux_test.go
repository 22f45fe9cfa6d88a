//go:build linux

package oodb_test

import (
	"os"
	"syscall"
)

// dropFileCache asks the kernel to evict the file's clean pages from the
// OS page cache (posix_fadvise DONTNEED). Best effort: on failure the
// benchmark runs with a warmer cache than intended.
//
// BenchmarkE19_ScaleOut uses it to keep loopback honest: on one machine
// every member's file shares the host page cache, which no real shard
// deployment has, so a member's buffer pool must be the only memory it
// gets — exactly the resource sharding aggregates.
func dropFileCache(path string) {
	f, err := os.Open(path)
	if err != nil {
		return
	}
	defer f.Close()
	// fadvise64(fd, offset=0, len=0 /* whole file */, POSIX_FADV_DONTNEED)
	_, _, _ = syscall.Syscall6(syscall.SYS_FADVISE64, f.Fd(), 0, 0, 4, 0, 0)
}
