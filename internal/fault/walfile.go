package fault

import (
	"math/rand"
	"os"
	"sync"

	"oodb/internal/wal"
)

// WALFile wraps the log's backing file. Writes, fsyncs and truncations are
// failpoints; the durability model tracks the byte length guaranteed to
// survive a crash (everything up to the last honest fsync), and at crash
// time the tail beyond it is cut back to a seeded prefix — possibly
// splitting a record frame, which is exactly the torn tail the WAL scanner
// must truncate on reopen.
//
// Truncation (checkpoint Reset) is treated as durable at the op, like
// directory metadata on a journaling filesystem; only appended bytes are
// subject to loss.
type WALFile struct {
	inj *Injector
	f   wal.File

	mu      sync.Mutex
	pos     int64
	size    int64
	durable int64
	crashed bool // applyCrash has cut the tail
}

// WrapWAL returns an Options.WrapWAL hook injecting faults through inj.
func WrapWAL(inj *Injector) func(wal.File) wal.File {
	return func(under wal.File) wal.File {
		w := &WALFile{inj: inj, f: under}
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
		n := len(p) / 2
		m, _ := w.f.Write(p[:n])
		w.advance(m)
		return m, ErrInjected
	case decTorn:
		k := 0
		if len(p) > 0 {
			k = w.inj.Intn(len(p))
		}
		m, _ := w.f.Write(p[:k])
		w.advance(m)
		w.inj.Crash()
		return m, ErrCrashed
	}
	n, err := w.f.Write(p)
	w.advance(n)
	return n, err
}

func (w *WALFile) advance(n int) {
	if n <= 0 {
		return
	}
	w.mu.Lock()
	w.pos += int64(n)
	if w.pos > w.size {
		w.size = w.pos
	}
	w.mu.Unlock()
}

func (w *WALFile) Seek(offset int64, whence int) (int64, error) {
	n, err := w.f.Seek(offset, whence)
	if err == nil {
		w.mu.Lock()
		w.pos = n
		if w.size < n {
			w.size = n
		}
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
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.crashed {
		// Another goroutine's op fired the crash while this fsync was in
		// flight, and the tail it was syncing has been cut: the caller of
		// an fsync the power failed under never hears that it succeeded.
		return ErrCrashed
	}
	w.durable = w.size
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
	if err := w.f.Truncate(size); err != nil {
		return err
	}
	w.mu.Lock()
	w.size = size
	if w.pos > size {
		w.pos = size
	}
	w.durable = size
	w.mu.Unlock()
	return nil
}

func (w *WALFile) Stat() (os.FileInfo, error) { return w.f.Stat() }

func (w *WALFile) Close() error { return w.f.Close() }

// applyCrash cuts the log back to its durable length plus a seeded prefix
// of the unsynced tail.
func (w *WALFile) applyCrash(rng *rand.Rand) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.crashed = true
	tail := w.size - w.durable
	if tail <= 0 {
		return
	}
	keep := rng.Int63n(tail + 1)
	w.f.Truncate(w.durable + keep)
	w.f.Sync()
	w.size = w.durable + keep
}
