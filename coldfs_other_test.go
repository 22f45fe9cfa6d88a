//go:build !linux

package oodb_test

// dropFileCache is a no-op off Linux: BenchmarkE19_ScaleOut then measures
// with whatever the host page cache holds, so the single member looks
// warmer than it would on a machine of its own.
func dropFileCache(path string) {}
