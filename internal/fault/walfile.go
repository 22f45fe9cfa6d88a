package fault

import (
	"io"
	"math/rand"
	"os"
	"sync"

	"oodb/internal/wal"
)

// WALFile wraps the log's backing file. Writes, fsyncs and truncations are
// failpoints. The durability model keeps every write made since the last
// honest fsync: the log overwrites the blocks of its earlier generations,
// so a write may land over durable bytes as well as past the end. At crash
// time a seeded prefix of each such write survives; every other byte it
// wrote reverts to its value at that fsync, and the file length reverts
// the same way — to the synced length, or to the end of the furthest
// surviving prefix, with zeros in any gap. A revert can therefore split a
// record frame (the torn tail the WAL scanner stops at) or bring a stale
// frame of an older generation back behind the new tail (the frame the
// scanner's LSN rule must refuse).
//
// Truncation is treated as durable at the op, like directory metadata on a
// journaling filesystem; only written bytes are subject to loss.
type WALFile struct {
	inj *Injector
	f   wal.File
	at  positional // f, for the crash model's reads and rewrites in place

	mu       sync.Mutex
	pos      int64
	size     int64
	durable  int64      // length at the last honest fsync
	unsynced []walWrite // writes since the last honest fsync, in order
	crashed  bool       // applyCrash has run
}

// positional is the part of an *os.File the crash model reads and rewrites
// through.
type positional interface {
	io.ReaderAt
	io.WriterAt
}

// walWrite is one write made since the last honest fsync: where it landed,
// what it wrote, and the bytes below the synced length it replaced.
type walWrite struct {
	off  int64
	data []byte
	old  []byte
}

// WrapWAL returns an Options.WrapWAL hook injecting faults through inj.
// The wrapped file must support positional I/O (an *os.File does).
func WrapWAL(inj *Injector) func(wal.File) wal.File {
	return func(under wal.File) wal.File {
		w := &WALFile{inj: inj, f: under}
		w.at = under.(positional)
		if st, err := under.Stat(); err == nil {
			// Pre-existing content predates this process: durable.
			w.size, w.durable = st.Size(), st.Size()
		}
		inj.OnCrash(w.applyCrash)
		return w
	}
}

func (w *WALFile) Read(p []byte) (int, error) { return w.f.Read(p) }

func (w *WALFile) Write(p []byte) (int, error) {
	dec := w.inj.begin(OpWALWrite)
	switch dec {
	case decCrash:
		return 0, ErrCrashed
	case decError:
		// Short write: a prefix reaches the file, the rest does not, and
		// the caller gets an error — the classic partially-applied append.
		m, _ := w.write(p[:len(p)/2])
		return m, ErrInjected
	case decTorn:
		k := 0
		if len(p) > 0 {
			k = w.inj.Intn(len(p))
		}
		m, _ := w.write(p[:k])
		w.inj.Crash()
		return m, ErrCrashed
	}
	return w.write(p)
}

// write performs one write at the current position and records it as
// unsynced. It runs under mu, so a crash fired by another goroutine either
// sees the write whole or finds it refused.
func (w *WALFile) write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.crashed {
		return 0, ErrCrashed
	}
	var old []byte
	if w.pos < w.durable {
		old = make([]byte, min(int64(len(p)), w.durable-w.pos))
		if _, err := w.at.ReadAt(old, w.pos); err != nil {
			return 0, err
		}
	}
	n, err := w.f.Write(p)
	if n > 0 {
		w.unsynced = append(w.unsynced, walWrite{off: w.pos, data: append([]byte(nil), p[:n]...), old: old})
		w.pos += int64(n)
		w.size = max(w.size, w.pos)
	}
	return n, err
}

func (w *WALFile) Seek(offset int64, whence int) (int64, error) {
	n, err := w.f.Seek(offset, whence)
	if err == nil {
		w.mu.Lock()
		w.pos = n
		w.mu.Unlock()
	}
	return n, err
}

func (w *WALFile) Sync() error {
	switch w.inj.begin(OpWALSync) {
	case decError:
		return ErrInjected
	case decLie:
		return nil // acknowledged, not durable
	case decCrash, decTorn:
		return ErrCrashed
	}
	// Held across the fsync, so a write made beside it is ordered after it
	// and stays unsynced, and a crash fired meanwhile reverts only what the
	// fsync did not cover.
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.crashed {
		// Another goroutine's op fired the crash and the unsynced writes
		// have been reverted: the caller of an fsync the power failed
		// under never hears that it succeeded.
		return ErrCrashed
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.durable = w.size
	w.unsynced = nil
	return nil
}

func (w *WALFile) Truncate(size int64) error {
	switch w.inj.begin(OpWALTrunc) {
	case decError:
		return ErrInjected
	case decOK:
	default:
		return ErrCrashed
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.crashed {
		return ErrCrashed
	}
	if err := w.f.Truncate(size); err != nil {
		return err
	}
	// Durable at the op: what it cut off can come back neither from the
	// synced image nor from an unsynced write.
	w.size = size
	w.durable = min(w.durable, size)
	kept := w.unsynced[:0]
	for _, u := range w.unsynced {
		if u.off >= size {
			continue
		}
		u.data = u.data[:min(int64(len(u.data)), size-u.off)]
		u.old = u.old[:min(int64(len(u.old)), max(0, w.durable-u.off))]
		kept = append(kept, u)
	}
	w.unsynced = kept
	return nil
}

func (w *WALFile) Stat() (os.FileInfo, error) { return w.f.Stat() }

func (w *WALFile) Close() error { return w.f.Close() }

// applyCrash reverts the unsynced writes: the file goes back to its image
// at the last honest fsync, then a seeded prefix of each write is laid
// over it again, in the order the writes were made.
func (w *WALFile) applyCrash(rng *rand.Rand) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.crashed = true
	if len(w.unsynced) == 0 {
		return
	}
	// Newest first, so each byte ends at the value the first write over it
	// replaced: its synced value.
	for i := len(w.unsynced) - 1; i >= 0; i-- {
		u := w.unsynced[i]
		w.at.WriteAt(u.old, u.off)
	}
	w.f.Truncate(w.durable)
	w.size = w.durable
	for _, u := range w.unsynced {
		if keep := rng.Intn(len(u.data) + 1); keep > 0 {
			w.at.WriteAt(u.data[:keep], u.off)
			w.size = max(w.size, u.off+int64(keep))
		}
	}
	w.f.Sync()
	w.unsynced = nil
}
