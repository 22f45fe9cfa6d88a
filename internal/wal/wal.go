// Package wal implements kimdb's write-ahead log: logical (object-level)
// redo/undo records appended to a dedicated log file and fsynced at commit.
//
// Recovery model (see internal/core/recover.go for the applier):
//
//   - DML (object put/delete) is logged with before- and after-images and
//     is idempotent to replay against the store;
//   - a checkpoint flushes every dirty page plus the catalog and segment
//     table, then starts a new generation of the log (Reset), so replay
//     always starts from an empty or post-checkpoint log;
//   - the log tail may be torn by a crash: frames carry checksums, and the
//     first bad frame ends recovery (everything after it was never
//     acknowledged as committed, because commit syncs);
//   - the file is recycled: a generation header at offset 0 names the LSN
//     of the generation's first frame, and the frames overwrite the blocks
//     of the generations before it, so a commit's fsync changes no file
//     size. A frame ends the log unless its LSN is exactly one past its
//     predecessor's (the first one's, the header's), so the older frames
//     behind the tail — checksum-valid, but with smaller LSNs — are never
//     replayed;
//   - in-place page writes are preceded by a full-page-image record
//     (RecPageImage) made durable before the page write itself
//     (WAL-before-data), so a write torn by a crash can be physically
//     restored before logical replay runs — without the image, amputating a
//     torn page would also lose pre-checkpoint records that are no longer
//     in the log.
//
// Commit pipeline. All flushes and fsyncs are performed by one dedicated
// writer goroutine. Committers append their records, then park on the
// durability watermark with WaitDurable(lsn) (or register a lazy
// RequestSync for relaxed-durability commits) — the writer flushes the
// buffer once, fsyncs once, publishes the new watermark, and wakes every
// parked committer it covered. Before the flush it may hold the batch open
// for the committers it expects back (see accumulate): it counts the
// committers in the commit loop — those a round released plus those already
// parked when it ended — and waits for that many, for at most half an fsync.
// A solo committer never waits: nobody is parked when its own fsync ends, so
// the count stays 1.
//
// Error model (fail-stop). A failed flush or fsync latches the WAL into a
// sticky failed state: after an fsync error the kernel may have discarded
// the dirty pages while keeping the error sticky only for the first caller
// ("fsyncgate"), so a later fsync that returns nil proves nothing about
// the lost writes. Once latched, Append, Sync, WaitDurable and Reset all
// return the latched error (wrapping ErrFailed and the original cause); the
// only way forward is to close and re-open the log, which re-reads the
// durable prefix from disk.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"oodb/internal/model"
)

// RecType enumerates log record types.
type RecType uint8

// The log record types.
const (
	RecBegin RecType = iota + 1
	RecCommit
	RecAbort
	RecPut       // object upsert: Before = prior image (nil on insert), After = new image
	RecDelete    // object delete: Before = prior image
	RecPageImage // physical full-page image: OID = page id, After = page bytes

	// RecCompaction marks the start of an online segment compaction
	// (OID = class id). It is replay-inert — compaction moves records
	// between pages without changing any object, so recovery needs no redo
	// or undo for it; the record exists so the log tells maintenance
	// rewrites apart from foreground traffic when reconstructing a crash.
	RecCompaction
)

// Record is one logical log record.
type Record struct {
	LSN    uint64
	Txn    uint64
	Type   RecType
	OID    model.OID
	Before []byte
	After  []byte
	// Epoch is the MVCC commit epoch assigned at commit (RecCommit only,
	// 0 otherwise). Recovery restores the engine's epoch counter to the
	// maximum seen, keeping snapshot epochs monotonic across a crash.
	Epoch uint64
}

// File is the surface the log needs from its backing file. *os.File is the
// production implementation; the fault-injection layer (internal/fault)
// wraps it to script short writes, fsync failures and crashes.
type File interface {
	io.Reader
	io.Writer
	io.Seeker
	Sync() error
	Truncate(size int64) error
	Stat() (os.FileInfo, error)
	Close() error
}

// ErrFailed marks a WAL latched into its sticky failed state by an earlier
// flush or fsync error. Every error returned after the latch wraps both
// ErrFailed and the original cause.
var ErrFailed = errors.New("wal: log failed (sticky; reopen to recover)")

// errClosed reports use of a closed log's commit pipeline.
var errClosed = errors.New("wal: log closed")

// waiter is one committer parked on the durability watermark.
type waiter struct {
	lsn uint64
	ch  chan error
}

// waiterChans recycles the channels committers park on. The writer sends
// exactly one value to every parked waiter and the waiter receives it before
// returning the channel, so a pooled channel is always empty.
var waiterChans = sync.Pool{New: func() any { return make(chan error, 1) }}

// Bounds of the writer's group wait.
const (
	maxBatchTarget = 256
	minBatchWait   = 50 * time.Microsecond
	maxBatchWait   = 2 * time.Millisecond
	// maxWaitBackoff caps the rounds skipped after a run of fruitless
	// waits: one wait of at most half an fsync per 65 rounds is under 1%
	// of a committer's time, and a pair that starts to overlap again is
	// noticed within that many rounds.
	maxWaitBackoff = 64
)

// WAL is an append-only log file. Appends are buffered; durability flows
// through the dedicated writer goroutine: Sync/WaitDurable park until the
// watermark covers the requested LSN, RequestSync registers a lazy flush
// for relaxed-durability commits.
type WAL struct {
	mu      sync.Mutex
	path    string
	file    File
	w       *bufio.Writer
	nextLSN uint64

	// The file's layout, under mu: the current generation's frames start
	// at base (0 in a log no Reset has given a header yet) and fileLen is
	// the file's length when the generation began. size counts the
	// generation's frame bytes, buffered ones included.
	base    int64
	fileLen int64
	size    atomic.Int64

	// durable is the watermark: the highest LSN known fsynced. Monotonic.
	durable atomic.Uint64

	// Sticky failure latch (see the package comment's error model).
	failed    atomic.Bool
	failMu    sync.Mutex
	failCause error

	// Commit pipeline state, owned by the writer goroutine except under pmu.
	pmu       sync.Mutex
	waiters   []waiter
	asyncReq  uint64 // highest LSN with a pending relaxed-durability request
	stopped   bool
	kick      chan struct{} // buffered(1) doorbell: work arrived
	quit      chan struct{}
	writerRip chan struct{} // closed when the writer goroutine exits

	// afterSync, when set, runs after every successful fsync and before
	// the watermark publish — the crash-matrix hook for the one pipeline
	// step that is not itself an I/O op.
	afterSync atomic.Pointer[func()]

	// Group-wait state, owned by the writer goroutine (see accumulate).
	emaLoop    float64     // smoothed committers in the commit loop
	emaFsyncNs float64     // EMA of recent fsync latency
	backoff    int         // rounds skipped after the last wait, 0 if it was answered
	skipWaits  int         // rounds left in which the wait is skipped
	timer      *time.Timer // bounds one wait; made by the first, reused after
	spare      []waiter    // the previous round's batch slice, emptied for reuse

	// Syncs counts successful fsyncs (observability: commits/Syncs is the
	// group-commit batching factor). Failed fsyncs count in
	// wal_fsync_errors_total instead, so the factor is not polluted.
	Syncs atomic.Uint64
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrTorn marks the first unreadable (torn) frame during recovery scan; it
// is internal — Open stops the scan there and returns cleanly.
var errTorn = errors.New("wal: torn frame")

// Open opens the log at path, scans any existing records for recovery and
// positions the log for appending. The returned records are everything
// durably logged since the last checkpoint, in LSN order.
func Open(path string) (*WAL, []Record, error) {
	return OpenWith(path, nil)
}

// OpenWith is Open with a hook wrapping the backing file — the seam the
// fault-injection harness uses to script I/O failures. A nil wrap opens the
// plain file.
func OpenWith(path string, wrap func(File) File) (*WAL, []Record, error) {
	osf, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: open %s: %w", path, err)
	}
	var f File = osf
	if wrap != nil {
		f = wrap(f)
	}
	recs, base, end, first, err := scan(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	// Cut the file after the last frame recovered. What follows it may
	// hold frames of this generation that outlived a torn one before them;
	// the next frames would overwrite it, and one of the same length could
	// line such a survivor up as their successor.
	if err := f.Truncate(end); err != nil {
		f.Close()
		return nil, nil, err
	}
	if _, err := f.Seek(end, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, err
	}
	w := &WAL{
		path:       path,
		file:       f,
		w:          bufio.NewWriterSize(f, 1<<16),
		nextLSN:    1,
		base:       base,
		fileLen:    end,
		kick:       make(chan struct{}, 1),
		quit:       make(chan struct{}),
		writerRip:  make(chan struct{}),
		emaLoop:    1,
		emaFsyncNs: float64(500 * time.Microsecond),
	}
	w.size.Store(end - base)
	if base > 0 {
		w.nextLSN = first
	}
	if n := len(recs); n > 0 {
		w.nextLSN = recs[n-1].LSN + 1
	}
	// Everything scanned was read off the platter: it is durable by
	// construction, so the watermark starts at the recovered tail.
	w.durable.Store(w.nextLSN - 1)
	go w.writerLoop()
	return w, recs, nil
}

// latch flips the WAL into its sticky failed state (first cause wins).
func (w *WAL) latch(cause error) {
	w.failMu.Lock()
	if !w.failed.Load() {
		w.failCause = cause
		w.failed.Store(true)
		mFailLatched.Add(1)
	}
	w.failMu.Unlock()
}

// Err returns nil while the log is healthy, or the latched failure —
// wrapping both ErrFailed and the original cause — once a flush or fsync
// has failed.
func (w *WAL) Err() error {
	if !w.failed.Load() {
		return nil
	}
	w.failMu.Lock()
	defer w.failMu.Unlock()
	return fmt.Errorf("%w: %w", ErrFailed, w.failCause)
}

// Close stops the writer goroutine (draining any parked committers), then
// flushes and closes the log. On a latched log the flush is skipped — its
// buffered frames are unrecoverable by definition — and the latched error
// is returned after the file is closed.
func (w *WAL) Close() error {
	w.pmu.Lock()
	already := w.stopped
	w.stopped = true
	w.pmu.Unlock()
	if !already {
		close(w.quit)
		<-w.writerRip
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.Err(); err != nil {
		w.file.Close()
		return err
	}
	if err := w.w.Flush(); err != nil {
		w.latch(err)
		w.file.Close()
		return err
	}
	return w.file.Close()
}

// Append assigns the record an LSN and buffers it. The record is durable
// only after the watermark passes its LSN (WaitDurable / RequestSync).
func (w *WAL) Append(rec Record) (uint64, error) {
	if err := w.Err(); err != nil {
		return 0, err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	rec.LSN = w.nextLSN
	w.nextLSN++
	frame := encodeRecord(rec)
	var hdr [8]byte
	binary.BigEndian.PutUint32(hdr[0:], uint32(len(frame)))
	binary.BigEndian.PutUint32(hdr[4:], crc32.Checksum(frame, crcTable))
	if _, err := w.w.Write(hdr[:]); err != nil {
		w.latch(err)
		return 0, err
	}
	if _, err := w.w.Write(frame); err != nil {
		w.latch(err)
		return 0, err
	}
	w.size.Add(int64(len(frame)) + 8)
	mAppendBytes.Add(uint64(len(frame)) + 8)
	mAppendRecs.Add(1)
	return rec.LSN, nil
}

// LastLSN returns the most recently assigned LSN (0 if none).
func (w *WAL) LastLSN() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.nextLSN - 1
}

// DurableLSN returns the durability watermark: every record with
// LSN ≤ DurableLSN() has been fsynced.
func (w *WAL) DurableLSN() uint64 { return w.durable.Load() }

// WaitDurable parks until the durability watermark reaches lsn, sharing
// the writer goroutine's batched fsync with every other parked committer.
// lsn must be an LSN this log has already assigned (an Append return
// value). Returns the latched error if the log fails.
func (w *WAL) WaitDurable(lsn uint64) error {
	if w.durable.Load() >= lsn {
		return nil
	}
	if err := w.Err(); err != nil {
		return err
	}
	var t0 time.Time
	if metricsOn() {
		t0 = time.Now()
	}
	w.pmu.Lock()
	if w.stopped {
		w.pmu.Unlock()
		if err := w.Err(); err != nil {
			return err
		}
		return errClosed
	}
	ch := waiterChans.Get().(chan error)
	w.waiters = append(w.waiters, waiter{lsn: lsn, ch: ch})
	w.pmu.Unlock()
	w.kickWriter()
	err := <-ch
	waiterChans.Put(ch)
	if !t0.IsZero() {
		mCommitWaitNs.Observe(uint64(time.Since(t0)))
	}
	return err
}

// RequestSync registers a relaxed-durability request: the writer will make
// lsn durable on its own schedule (next batch), without parking the
// caller. The bounded-loss contract of CommitAsync: a crash may lose the
// tail of requested-but-unflushed commits, never a prefix gap.
func (w *WAL) RequestSync(lsn uint64) {
	w.pmu.Lock()
	if lsn > w.asyncReq {
		w.asyncReq = lsn
	}
	stopped := w.stopped
	w.pmu.Unlock()
	if !stopped {
		w.kickWriter()
	}
}

// Sync makes every record appended so far durable. Equivalent to
// WaitDurable(LastLSN()): the flush and fsync happen on the writer
// goroutine, batched with any concurrent committers.
func (w *WAL) Sync() error {
	return w.WaitDurable(w.LastLSN())
}

// SetAfterSync installs a hook run after every successful fsync, just
// before the durability watermark is published — the seam crash tests use
// to land a simulated crash between the fsync and the publish. Testing
// only; pass nil to remove.
func (w *WAL) SetAfterSync(fn func()) {
	if fn == nil {
		w.afterSync.Store(nil)
		return
	}
	w.afterSync.Store(&fn)
}

// kickWriter rings the writer's doorbell (coalescing: one buffered slot).
func (w *WAL) kickWriter() {
	select {
	case w.kick <- struct{}{}:
	default:
	}
}

// writerLoop is the dedicated WAL writer: each round it may hold the batch
// open for committers it expects back, then performs one flush + fsync for
// every committer parked by then.
func (w *WAL) writerLoop() {
	defer close(w.writerRip)
	for {
		select {
		case <-w.kick:
			w.accumulate()
			w.flushOnce()
		case <-w.quit:
			// Final drain: anything still parked or lazily requested gets
			// one last flush before Close proceeds.
			w.flushOnce()
			return
		}
	}
}

// parked returns the number of committers waiting for the next round.
func (w *WAL) parked() int {
	w.pmu.Lock()
	defer w.pmu.Unlock()
	return len(w.waiters)
}

// batchTarget is the number of committers worth waiting for: the smoothed
// count of committers in the commit loop. flushOnce takes a sample when a
// round's fsync returns — the committers the round releases plus those that
// parked while it ran. Each member of the loop is in exactly one of the two
// sets, so a pair yields 2 whether its commits alternate (1 + 1) or
// coincide (2 + 0), and a solo committer yields 1 always. (The size of the
// batches the writer got is no such evidence: a writer that has seen only
// batches of 1 aims for 1, does not wait, and sees only batches of 1.)
func (w *WAL) batchTarget() int {
	return min(int(w.emaLoop+0.5), maxBatchTarget)
}

// batchWait bounds one wait. A wait that is answered saves a whole fsync and
// one that is not costs its length, so it is held to half the EMA fsync
// latency, clamped to [minBatchWait, maxBatchWait].
func (w *WAL) batchWait() time.Duration {
	return min(max(time.Duration(w.emaFsyncNs/2), minBatchWait), maxBatchWait)
}

// accumulate holds the batch open until batchTarget committers are parked or
// batchWait has passed. It waits only with a committer parked and fewer than
// the target: a lazy request or a Reset kick parks nobody and a solo
// committer meets a target of 1. A wait that ends with nobody new parked was
// the wrong bet — the siblings think for longer than the window, or have
// left — so the following rounds skip it: one round, then two, doubling up
// to maxWaitBackoff until a wait is answered.
func (w *WAL) accumulate() {
	target := w.batchTarget()
	n0 := w.parked()
	if n0 == 0 || n0 >= target || w.failed.Load() {
		return
	}
	if w.skipWaits > 0 {
		w.skipWaits--
		return
	}
	t0 := time.Now()
	if w.timer == nil {
		w.timer = time.NewTimer(w.batchWait())
	} else {
		w.timer.Reset(w.batchWait())
	}
	n, expired := n0, false
	for n < target && !expired {
		select {
		case <-w.kick:
		case <-w.timer.C:
			expired = true
		case <-w.quit:
			// The final drain follows; nothing reads the timer again.
			return
		}
		n = w.parked()
	}
	if !expired && !w.timer.Stop() {
		// Fired since the last select. The value is in the channel or on
		// its way there: take it, or the next wait ends the moment it starts.
		<-w.timer.C
	}
	mGroupWaits.Add(1)
	mGroupWaitNs.Observe(uint64(time.Since(t0)))
	if expired {
		mGroupWaitTimeouts.Add(1)
	}
	if n > n0 {
		w.backoff = 0
	} else {
		w.backoff = min(max(1, 2*w.backoff), maxWaitBackoff)
		w.skipWaits = w.backoff
	}
}

// flushOnce performs one pipeline round: take every parked committer and
// pending lazy request, flush the buffer, fsync, publish the watermark,
// wake the batch. On error it latches the log and fails the whole batch.
func (w *WAL) flushOnce() {
	w.pmu.Lock()
	batch := w.waiters
	w.waiters = w.spare
	asyncReq := w.asyncReq
	w.pmu.Unlock()
	w.spare = batch[:0]

	if err := w.Err(); err != nil {
		for _, wt := range batch {
			wt.ch <- err
		}
		return
	}

	// Committers already covered by the watermark (an earlier round's
	// fsync ran after they appended) complete without new I/O.
	d := w.durable.Load()
	pending := batch[:0]
	for _, wt := range batch {
		if wt.lsn <= d {
			wt.ch <- nil
		} else {
			pending = append(pending, wt)
		}
	}
	if len(pending) == 0 && asyncReq <= d {
		return
	}

	// Flush under the append lock; the fsync runs outside it, so appends
	// for the next batch keep flowing while this one hits the platter.
	w.mu.Lock()
	upto := w.nextLSN - 1
	err := w.w.Flush()
	w.mu.Unlock()
	if err == nil {
		err = w.syncTimed()
	}
	if err != nil {
		w.latch(err)
		err = w.Err()
		for _, wt := range pending {
			wt.ch <- err
		}
		return
	}

	w.Syncs.Add(1)
	if n := len(pending); n > 0 {
		mBatchSize.Observe(uint64(n))
		// Sampled before the wake-ups below, so nobody is counted twice.
		w.emaLoop += 0.25 * (float64(n+w.parked()) - w.emaLoop)
	}
	if hook := w.afterSync.Load(); hook != nil {
		(*hook)()
	}
	// Publish the watermark (monotonic: Reset may already have advanced it
	// past this round's flush point).
	for {
		cur := w.durable.Load()
		if upto <= cur || w.durable.CompareAndSwap(cur, upto) {
			break
		}
	}
	for _, wt := range pending {
		wt.ch <- nil
	}
}

// Reset starts a new generation of the log after a checkpoint: it writes a
// header naming the next LSN as the generation's first and fsyncs it, and
// the generation's frames then overwrite the blocks the file already owns.
// All buffered and stored records are discarded; the LSN sequence
// continues, so the old frames behind the new tail never continue it. The
// file is cut back to the generation that ends only when it is more than
// twice as long and over minShrink, which bounds it without a knob. The watermark
// jumps to the current tail: every discarded record's durability is now
// carried by the checkpointed pages, so parked or lazy requests for them
// are trivially satisfied.
func (w *WAL) Reset() error {
	if err := w.Err(); err != nil {
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	ended := max(w.base+w.size.Load()-int64(w.w.Buffered()), headerSize)
	w.fileLen = max(w.fileLen, ended)
	w.w.Reset(io.Discard) // drop buffered frames
	if err := w.writeHeader(); err != nil {
		w.latch(err)
		return err
	}
	if w.fileLen > max(2*ended, minShrink) {
		if err := w.file.Truncate(ended); err != nil {
			w.latch(err)
			return err
		}
		w.fileLen = ended
	}
	w.w.Reset(w.file)
	w.base = headerSize
	w.size.Store(0)
	if err := w.file.Sync(); err != nil {
		w.latch(err)
		return err
	}
	// Monotonic publish, then a kick so the writer drains any waiters the
	// jump satisfied.
	upto := w.nextLSN - 1
	for {
		cur := w.durable.Load()
		if upto <= cur || w.durable.CompareAndSwap(cur, upto) {
			break
		}
	}
	w.kickWriter()
	return nil
}

// Size returns the bytes of the current generation's frames, buffered ones
// included: 0 right after Reset.
func (w *WAL) Size() int64 { return w.size.Load() }

// The generation header: headerMagic, the generation's first LSN (big
// endian) and the CRC of both. The magic's first byte is above any frame's
// first (a frame opens with its length, at most 1<<28), so a headerless log
// never reads as one with a header.
const headerSize = 20

// minShrink is the length below which Reset never cuts the file back:
// cutting a small log saves no space worth a size change at the next fsync.
const minShrink = 1 << 20

var headerMagic = [8]byte{'k', 'i', 'm', 'w', 'a', 'l', 'g', '1'}

// appendHeader appends the header of a generation whose first LSN is first.
func appendHeader(buf []byte, first uint64) []byte {
	buf = append(buf, headerMagic[:]...)
	buf = binary.BigEndian.AppendUint64(buf, first)
	return binary.BigEndian.AppendUint32(buf, crc32.Checksum(buf[len(buf)-16:], crcTable))
}

// writeHeader writes the header of a generation starting at nextLSN and
// positions the file after it. Caller holds mu.
func (w *WAL) writeHeader() error {
	if _, err := w.file.Seek(0, io.SeekStart); err != nil {
		return err
	}
	if _, err := w.file.Write(appendHeader(make([]byte, 0, headerSize), w.nextLSN)); err != nil {
		return err
	}
	_, err := w.file.Seek(headerSize, io.SeekStart)
	return err
}

// encodeRecord serializes a record body (without the frame header).
func encodeRecord(rec Record) []byte {
	buf := make([]byte, 0, 32+len(rec.Before)+len(rec.After))
	buf = binary.AppendUvarint(buf, rec.LSN)
	buf = binary.AppendUvarint(buf, rec.Txn)
	buf = append(buf, byte(rec.Type))
	buf = binary.AppendUvarint(buf, uint64(rec.OID))
	buf = binary.AppendUvarint(buf, uint64(len(rec.Before)))
	buf = append(buf, rec.Before...)
	buf = binary.AppendUvarint(buf, uint64(len(rec.After)))
	buf = append(buf, rec.After...)
	buf = binary.AppendUvarint(buf, rec.Epoch)
	return buf
}

func decodeRecord(buf []byte) (Record, error) {
	r := model.NewReader(buf, errTorn)
	rec := Record{LSN: r.Uvarint(), Txn: r.Uvarint(), Type: RecType(r.Byte()), OID: r.OID(),
		Before: r.Bytes(), After: r.Bytes()}
	// Epoch rides at the tail; records written before the field existed
	// simply end here and decode as epoch 0. A record that does not end
	// where its last field does is torn.
	if r.Remaining() > 0 {
		rec.Epoch = r.Uvarint()
	}
	r.End()
	if err := r.Err(); err != nil {
		return Record{}, err
	}
	return rec, nil
}

// PageImages extracts, for each page id, the last full-page image logged
// in the recovered record stream (LSN order). The map feeds
// storage.RestoreTornPages before the store opens.
func PageImages(recs []Record) map[uint64][]byte {
	var m map[uint64][]byte
	for _, r := range recs {
		if r.Type == RecPageImage {
			if m == nil {
				m = make(map[uint64][]byte)
			}
			m[uint64(r.OID)] = r.After
		}
	}
	return m
}

// scan reads the log: the generation header, if the file starts with one,
// then frames until EOF, a torn frame, or a frame whose LSN is not one past
// its predecessor's (the first one's must be the header's). It returns the
// records, the offset the frames start at, the end of the last one
// accepted, and the header's first LSN (0 without a header). A torn
// header — the magic, but not its CRC — yields no records and a log to be
// cut to nothing: only Reset writes one, and Reset runs after a completed
// checkpoint.
func scan(f File) (recs []Record, base, end int64, first uint64, err error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, 0, 0, 0, err
	}
	var hdr [headerSize]byte
	n, _ := io.ReadFull(f, hdr[:])
	if n >= len(headerMagic) && [8]byte(hdr[:8]) == headerMagic {
		if n < headerSize || crc32.Checksum(hdr[:16], crcTable) != binary.BigEndian.Uint32(hdr[16:]) {
			return nil, 0, 0, 0, nil
		}
		base, first = headerSize, binary.BigEndian.Uint64(hdr[8:])
	}
	st, err := f.Stat()
	if err != nil {
		return nil, 0, 0, 0, err
	}
	if _, err := f.Seek(base, io.SeekStart); err != nil {
		return nil, 0, 0, 0, err
	}
	r := bufio.NewReaderSize(f, 1<<16)
	next, valid := first, base
	for {
		var fh [8]byte
		if _, err := io.ReadFull(r, fh[:]); err != nil {
			break // EOF or short header: end of valid prefix
		}
		size := binary.BigEndian.Uint32(fh[0:])
		sum := binary.BigEndian.Uint32(fh[4:])
		// A length past the end of the file is torn: refuse it before
		// allocating for it.
		if size == 0 || size > 1<<28 || int64(size) > st.Size()-valid-8 {
			break
		}
		frame := make([]byte, size)
		if _, err := io.ReadFull(r, frame); err != nil {
			break
		}
		if crc32.Checksum(frame, crcTable) != sum {
			break
		}
		rec, err := decodeRecord(frame)
		if err != nil || ((base > 0 || len(recs) > 0) && rec.LSN != next) {
			break
		}
		recs = append(recs, rec)
		next = rec.LSN + 1
		valid += int64(8 + size)
	}
	return recs, base, valid, first, nil
}

// Analysis partitions recovered records into finished transactions
// (commit OR abort record present) and in-flight losers. Aborted
// transactions count as finished because rollback logs compensation
// records (the restore operations themselves), so replaying an aborted
// transaction forward — originals then compensations — reproduces the
// rolled-back state without a recovery-time undo that could clobber later
// committed writes to the same objects.
type Analysis struct {
	Records  []Record
	Finished map[uint64]bool
}

// Analyze builds the recovery analysis from a recovered record stream.
func Analyze(recs []Record) Analysis {
	a := Analysis{Records: recs, Finished: make(map[uint64]bool)}
	for _, r := range recs {
		if r.Type == RecCommit || r.Type == RecAbort {
			a.Finished[r.Txn] = true
		}
	}
	return a
}

// RedoOps returns the data ops of finished transactions in LSN order
// (for aborted transactions this includes their compensation records,
// which restore the pre-transaction state).
func (a Analysis) RedoOps() []Record {
	var out []Record
	for _, r := range a.Records {
		if (r.Type == RecPut || r.Type == RecDelete) && a.Finished[r.Txn] {
			out = append(out, r)
		}
	}
	return out
}

// UndoOps returns the data ops of in-flight (crashed) transactions in
// reverse LSN order — the order in which their before-images must be
// restored.
func (a Analysis) UndoOps() []Record {
	var out []Record
	for i := len(a.Records) - 1; i >= 0; i-- {
		r := a.Records[i]
		if (r.Type == RecPut || r.Type == RecDelete) && !a.Finished[r.Txn] {
			out = append(out, r)
		}
	}
	return out
}
