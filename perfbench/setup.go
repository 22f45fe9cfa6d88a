package main

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sync"
	"time"

	"oodb"
	"oodb/internal/bench"
	"oodb/internal/model"
	"oodb/internal/query"
	"oodb/internal/server"
	"oodb/internal/server/client"
	"oodb/internal/server/proto"
	"oodb/internal/shard"
)

// env is what a set-up is given.
type env struct {
	def     *workloadDef
	seed    int64
	clients int
	dir     string // this set-up's own data directory
	traced  bool   // layer pass: twins and payload capture are switched on
}

// clientFn executes one operation, oracle included. A non-nil error counts
// the operation as failed.
type clientFn func(o *op, t *tracer) error

// capture holds payloads one client saw on sampled operations of the traced
// window, for timing the wire codec on real bytes afterwards.
type capture struct {
	results []*proto.Result
	attrs   []map[string]model.Value
}

const captureCap = 256

// instance is one set-up of a workload, ready to be driven.
type instance struct {
	ops       []op
	clients   []clientFn
	dataDirs  []string   // database directories, for space amplification
	userBytes int64      // user bytes the set-up loaded
	written   []int64    // user bytes each client's operations wrote
	rows      []int64    // result rows each client's queries received
	captures  []*capture // per client, filled under tracing only
	// verify is the end-of-run oracle of the workloads that write. It may
	// close and reopen what the set-up opened; it returns the number of
	// checks that failed.
	verify  func() (int, error)
	closers []func()
}

func (in *instance) onClose(f func()) { in.closers = append(in.closers, f) }

// close releases everything the set-up opened, newest first. Closing twice
// is harmless: every closer here tolerates it.
func (in *instance) close() {
	for i := len(in.closers) - 1; i >= 0; i-- {
		in.closers[i]()
	}
	in.closers = nil
}

func newInstance(e *env) *instance {
	in := &instance{
		ops:     genOps(e.def, e.seed, e.clients),
		clients: make([]clientFn, e.clients),
		written: make([]int64, e.clients),
		rows:    make([]int64, e.clients),
	}
	for c := 0; c < e.clients; c++ {
		in.captures = append(in.captures, &capture{})
	}
	return in
}

func mismatch(o *op, format string, args ...any) error {
	return fmt.Errorf("oracle: %s %q arg %d: %s", kindNames[o.Kind], o.Stmt, o.Arg, fmt.Sprintf(format, args...))
}

func checkPrint(o *op, got uint64) error {
	if got != o.want {
		return mismatch(o, "fingerprint %016x, want %016x", got, o.want)
	}
	return nil
}

// span times fn as a child of the open span.
func (t *tracer) span(name string, fn func() error) error {
	id := t.begin(name)
	err := fn()
	t.end(id)
	return err
}

func openDB(in *instance, dir string, opts oodb.Options) (*oodb.DB, error) {
	db, err := oodb.Open(dir, opts)
	if err != nil {
		return nil, err
	}
	in.dataDirs = append(in.dataDirs, dir)
	in.onClose(func() { _ = db.Close() })
	return db, nil
}

// --- embed.traverse ------------------------------------------------------

func pidHash(pids []int32) uint64 {
	h := fnv.New64a()
	var buf [4]byte
	for _, p := range pids {
		buf[0], buf[1], buf[2], buf[3] = byte(p), byte(p>>8), byte(p>>16), byte(p>>24)
		_, _ = h.Write(buf[:])
	}
	return h.Sum64()
}

// modelClosure is the oracle's depth-bounded, visit-once, depth-first
// closure over the in-memory adjacency; closureDB is the same walk with one
// database fetch per visit.
func modelClosure(adj [][]int32, root int32, depth int) uint64 {
	type frame struct {
		pid int32
		d   int
	}
	seen := map[int32]bool{}
	stack := []frame{{root, depth}}
	var order []int32
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[f.pid] {
			continue
		}
		seen[f.pid] = true
		order = append(order, f.pid)
		if f.d == 1 {
			continue
		}
		to := adj[f.pid]
		for i := len(to) - 1; i >= 0; i-- {
			stack = append(stack, frame{to[i], f.d - 1})
		}
	}
	return pidHash(order)
}

type oidFrame struct {
	oid oodb.OID
	d   int
}

// traverser holds one client's reusable traversal state.
type traverser struct {
	db    *oodb.DB
	seen  map[oodb.OID]struct{}
	stack []oidFrame
	order []int32
}

func (tv *traverser) closureDB(root oodb.OID, depth int, t *tracer) (uint64, error) {
	clear(tv.seen)
	tv.stack = append(tv.stack[:0], oidFrame{root, depth})
	tv.order = tv.order[:0]
	for len(tv.stack) > 0 {
		f := tv.stack[len(tv.stack)-1]
		tv.stack = tv.stack[:len(tv.stack)-1]
		if _, ok := tv.seen[f.oid]; ok {
			continue
		}
		tv.seen[f.oid] = struct{}{}
		id := t.begin("oodb.DB.Fetch")
		obj, err := tv.db.Fetch(f.oid)
		t.end(id)
		if err != nil {
			return 0, err
		}
		pidV, err := tv.db.Get(obj, "pid")
		if err != nil {
			return 0, err
		}
		pid, _ := pidV.AsInt()
		tv.order = append(tv.order, int32(pid))
		if f.d == 1 {
			continue
		}
		to, err := tv.db.Get(obj, "to")
		if err != nil {
			return 0, err
		}
		members, _ := to.AsSet()
		for i := len(members) - 1; i >= 0; i-- {
			if ref, ok := members[i].AsRef(); ok {
				tv.stack = append(tv.stack, oidFrame{ref, f.d - 1})
			}
		}
	}
	return pidHash(tv.order), nil
}

func setupTraverse(e *env) (*instance, error) {
	in := newInstance(e)
	db, err := openDB(in, filepath.Join(e.dir, "db"), oodb.Options{NoSync: true, PoolPages: traversePool})
	if err != nil {
		return in, err
	}
	g, err := bench.BuildOO1(db, oo1Parts, oo1Conn, oo1NoisePer, e.seed)
	if err != nil {
		return in, err
	}
	if err := db.Checkpoint(); err != nil {
		return in, err
	}
	// The model: every part's connections by pid, read once.
	pidOf := make(map[oodb.OID]int32, len(g.Parts))
	for pid, oid := range g.Parts {
		pidOf[oid] = int32(pid)
	}
	adj := make([][]int32, len(g.Parts))
	var buf []byte
	for pid, oid := range g.Parts {
		obj, err := db.Fetch(oid)
		if err != nil {
			return in, err
		}
		for _, av := range obj.AttrVals() {
			buf = model.AppendValue(buf[:0], av.V)
			in.userBytes += int64(len(buf))
		}
		to, err := db.Get(obj, "to")
		if err != nil {
			return in, err
		}
		members, _ := to.AsSet()
		for _, m := range members {
			if ref, ok := m.AsRef(); ok {
				adj[pid] = append(adj[pid], pidOf[ref])
			}
		}
	}
	for i := range in.ops {
		in.ops[i].want = modelClosure(adj, int32(in.ops[i].Arg), traverseDepth)
	}
	for c := range in.clients {
		tv := &traverser{db: db, seen: make(map[oodb.OID]struct{}, 512)}
		in.clients[c] = func(o *op, t *tracer) error {
			root := t.begin("traverse")
			got, err := tv.closureDB(g.Parts[o.Arg], traverseDepth, t)
			t.end(root)
			if err != nil {
				return err
			}
			return checkPrint(o, got)
		}
	}
	return in, nil
}

// --- embed.query ---------------------------------------------------------

// splitQuery is oodb.DB.Query taken apart so each stage can be timed: the
// same Begin, Parse, PlanQuery, Execute, Commit.
func splitQuery(db *oodb.DB, src string, t *tracer) (*oodb.Result, error) {
	tx := db.Begin()
	defer tx.Commit()
	var q *query.Query
	var plan *query.Plan
	var res *oodb.Result
	err := t.span("query.Parse", func() (err error) { q, err = query.Parse(src); return })
	if err != nil {
		return nil, err
	}
	err = t.span("query.Engine.PlanQuery", func() (err error) { plan, err = db.QueryEngine().PlanQuery(q); return })
	if err != nil {
		return nil, err
	}
	err = t.span("query.Engine.Execute", func() (err error) { res, err = db.QueryEngine().Execute(tx, plan); return })
	return res, err
}

func queryPrint(res *oodb.Result, k opKind) uint64 {
	return fingerprint(len(res.Rows), func(i int) []model.Value { return res.Rows[i].Values }, ordered(k))
}

func setupQuery(e *env) (*instance, error) {
	in := newInstance(e)
	db, err := openDB(in, filepath.Join(e.dir, "db"), oodb.Options{NoSync: true, PoolPages: worldPool})
	if err != nil {
		return in, err
	}
	w := genWorld(e.seed)
	p, err := loadWorld(w, []*oodb.DB{db})
	if err != nil {
		return in, err
	}
	in.userBytes = p.userBytes
	if err := db.Checkpoint(); err != nil {
		return in, err
	}
	for i := range in.ops {
		in.ops[i].want = w.expect(&in.ops[i])
	}
	for c := range in.clients {
		in.clients[c] = func(o *op, t *tracer) error {
			var res *oodb.Result
			var err error
			root := t.begin(kindNames[o.Kind])
			if t.sampled() {
				res, err = splitQuery(db, o.Stmt, t)
			} else {
				res, err = db.Query(o.Stmt)
			}
			t.end(root)
			if err != nil {
				return err
			}
			in.rows[c] += int64(len(res.Rows))
			return checkPrint(o, queryPrint(res, o.Kind))
		}
	}
	return in, nil
}

// --- embed.commit --------------------------------------------------------

type ackedEntry struct {
	oid   oodb.OID
	owner int
	seq   int64
}

// commitState is what one client knows it was told: the last acknowledged
// value of each account it owns and every acknowledged insert.
type commitState struct {
	n     int64
	last  map[int]int64
	acked []ackedEntry
}

func intAttr(db *oodb.DB, obj *oodb.Object, name string) (int64, error) {
	v, err := db.Get(obj, name)
	if err != nil {
		return 0, err
	}
	n, ok := v.AsInt()
	if !ok {
		return 0, fmt.Errorf("attribute %s is %s, not an integer", name, v)
	}
	return n, nil
}

func setupCommit(e *env) (*instance, error) {
	in := newInstance(e)
	dir := filepath.Join(e.dir, "db")
	opts := oodb.Options{PoolPages: worldPool, CheckpointBytes: neverCheckpoint} // full durability
	db, err := openDB(in, dir, opts)
	if err != nil {
		return in, err
	}
	if _, err := db.DefineClass("Acct", nil,
		oodb.Attr{Name: "id", Domain: "Integer"},
		oodb.Attr{Name: "a", Domain: "Integer"},
		oodb.Attr{Name: "b", Domain: "Integer"}); err != nil {
		return in, err
	}
	if _, err := db.DefineClass("Entry", nil,
		oodb.Attr{Name: "owner", Domain: "Integer"},
		oodb.Attr{Name: "seq", Domain: "Integer"}); err != nil {
		return in, err
	}
	oids := make([]oodb.OID, nAccounts)
	err = inBatches(db, nAccounts, func(tx *oodb.Tx, i int) error {
		attrs := oodb.Attrs{"id": oodb.Int(int64(i)), "a": oodb.Int(0), "b": oodb.Int(0)}
		in.userBytes += valueBytes(attrs)
		var err error
		oids[i], err = tx.Insert("Acct", attrs)
		return err
	})
	if err != nil {
		return in, err
	}
	if err := db.Checkpoint(); err != nil {
		return in, err
	}
	// Every operation runs under the gate's read side; client 0 takes the
	// write side around its checkpoints (see checkpointEvery).
	var gate sync.RWMutex
	states := make([]*commitState, e.clients)
	for c := range in.clients {
		st := &commitState{last: map[int]int64{}}
		states[c] = st
		account := func(slot int) int { return slot*e.clients + c }
		in.clients[c] = func(o *op, t *tracer) error {
			if c == 0 && o.Kind == kTxn && st.n%checkpointEvery == checkpointEvery-1 {
				gate.Lock()
				err := t.span("oodb.DB.Checkpoint", db.Checkpoint)
				gate.Unlock()
				if err != nil {
					return err
				}
			}
			gate.RLock()
			defer gate.RUnlock()
			if o.Kind == kSnapRead {
				root := t.begin("snapshot-read")
				defer t.end(root)
				id := t.begin("oodb.DB.BeginSnapshot")
				stx := db.BeginSnapshot()
				t.end(id)
				defer stx.Commit()
				for j := 0; j < snapshotReads; j++ {
					idx := account(o.Arg + j)
					var obj *oodb.Object
					err := t.span("core.Tx.Fetch", func() (err error) { obj, err = stx.Fetch(oids[idx]); return })
					if err != nil {
						return err
					}
					if a, err := intAttr(db, obj, "a"); err != nil || a != st.last[idx] {
						return mismatch(o, "snapshot read a=%d of account %d, acknowledged %d (%v)", a, idx, st.last[idx], err)
					}
				}
				return nil
			}
			idx := account(o.Arg)
			st.n++
			update := oodb.Attrs{"a": oodb.Int(st.n), "b": oodb.Int(st.n)}
			entry := oodb.Attrs{"owner": oodb.Int(int64(idx)), "seq": oodb.Int(st.n)}
			in.written[c] += valueBytes(update) + valueBytes(entry)
			var obj *oodb.Object
			var eoid oodb.OID
			root := t.begin("txn")
			id := t.begin("oodb.DB.Begin")
			tx := db.Begin()
			t.end(id)
			err := t.span("core.Tx.Fetch", func() (err error) { obj, err = tx.Fetch(oids[idx]); return })
			if err == nil {
				err = t.span("core.Tx.Update", func() error { return tx.Update(oids[idx], update) })
			}
			if err == nil {
				err = t.span("core.Tx.Insert", func() (err error) { eoid, err = tx.Insert("Entry", entry); return })
			}
			if err != nil {
				_ = tx.Abort()
				t.end(root)
				return err
			}
			err = t.span("core.Tx.Commit", tx.Commit)
			t.end(root)
			if err != nil {
				return err
			}
			was := st.last[idx]
			st.last[idx] = st.n
			st.acked = append(st.acked, ackedEntry{eoid, idx, st.n})
			if a, err := intAttr(db, obj, "a"); err != nil || a != was {
				return mismatch(o, "read a=%d of account %d, acknowledged %d (%v)", a, idx, was, err)
			}
			return nil
		}
	}
	// Every acknowledged insert and the last acknowledged update of every
	// account must be readable after a close and a reopen.
	in.verify = func() (int, error) {
		if err := db.Close(); err != nil {
			return 0, err
		}
		re, err := oodb.Open(dir, opts)
		if err != nil {
			return 0, err
		}
		defer re.Close()
		failed := 0
		for _, st := range states {
			for _, a := range st.acked {
				obj, err := re.Fetch(a.oid)
				if err != nil {
					failed++
					continue
				}
				owner, _ := intAttr(re, obj, "owner")
				seq, _ := intAttr(re, obj, "seq")
				if owner != int64(a.owner) || seq != a.seq {
					failed++
				}
			}
			for idx, n := range st.last {
				obj, err := re.Fetch(oids[idx])
				if err != nil {
					failed++
					continue
				}
				a, _ := intAttr(re, obj, "a")
				b, _ := intAttr(re, obj, "b")
				if a != n || b != n {
					failed++
				}
			}
		}
		return failed, nil
	}
	return in, nil
}

// --- wire.mixed and shard.scatter ---------------------------------------

// objectDoor is the single-object surface client.Client and shard.Router
// share; the two served workloads read and update vehicles through it.
type objectDoor interface {
	Get(oid model.OID, attr string) (model.Value, error)
	Fetch(oid model.OID) (*client.Object, error)
	Update(oid model.OID, attrs map[string]model.Value) error
}

type insertedVehicle struct {
	oid oodb.OID
	vid string
}

// vehicleClient is one client's view of the world's vehicles through a door:
// what it reads must fit the model, and it remembers what it was told about
// the vehicles it owns (vehicle v belongs to client v mod clients) and the
// ones it inserted.
type vehicleClient struct {
	door     objectDoor
	spans    string // span name prefix: the door's type
	w        *world
	oids     []oodb.OID // vehicle -> OID in the door's space
	written  *int64
	cp       *capture
	n        int64
	last     map[int]int64 // owned vehicle -> n of its last acknowledged update
	inserted []insertedVehicle
}

// checkWeight holds for any read of a vehicle's weight, fresh or served from
// a session's cache.
func (v *vehicleClient) checkWeight(o *op, veh int, val model.Value) error {
	got, ok := val.AsInt()
	if !ok || got%weightStep != int64(v.w.vehWeight[veh]) {
		return mismatch(o, "weight %s of vehicle %d, base %d", val, veh, v.w.vehWeight[veh])
	}
	return nil
}

// updatedWeight is what an owned vehicle's weight must read once every
// acknowledged update is visible.
func (v *vehicleClient) updatedWeight(veh int) int64 {
	return int64(v.w.vehWeight[veh]) + weightStep*v.last[veh]
}

// get, fetch and update execute one single-object operation and close the
// operation's root span before the oracle runs.
func (v *vehicleClient) get(o *op, t *tracer, root int32) error {
	var val model.Value
	err := t.span(v.spans+"Get", func() (err error) { val, err = v.door.Get(v.oids[o.Arg], "weight"); return })
	t.end(root)
	if err != nil {
		return err
	}
	return v.checkWeight(o, o.Arg, val)
}

func (v *vehicleClient) fetch(o *op, t *tracer, root int32) error {
	var obj *client.Object
	err := t.span(v.spans+"Fetch", func() (err error) { obj, err = v.door.Fetch(v.oids[o.Arg]); return })
	t.end(root)
	if err != nil {
		return err
	}
	class := vehicleClasses[v.w.vehClass[o.Arg]]
	if s, _ := obj.Attrs["vid"].AsString(); s != vid(o.Arg) || obj.Class != class {
		return mismatch(o, "fetched %s %q, want %s %q", obj.Class, s, class, vid(o.Arg))
	}
	return v.checkWeight(o, o.Arg, obj.Attrs["weight"])
}

func (v *vehicleClient) update(t *tracer, root int32, veh int) error {
	v.n++
	attrs := map[string]model.Value{"weight": model.Int(int64(v.w.vehWeight[veh]) + weightStep*v.n)}
	*v.written += valueBytes(attrs)
	err := t.span(v.spans+"Update", func() error { return v.door.Update(v.oids[veh], attrs) })
	t.end(root)
	if err != nil {
		return err
	}
	v.last[veh] = v.n
	if t.sampled() && len(v.cp.attrs) < captureCap {
		v.cp.attrs = append(v.cp.attrs, attrs)
	}
	return nil
}

// captureResult keeps a sampled query result for timing the wire codec.
func (cp *capture) captureResult(cols []string, n int, row func(i int) (model.OID, []model.Value)) {
	if len(cp.results) >= captureCap {
		return
	}
	res := &proto.Result{Cols: cols, Rows: make([]proto.ResultRow, n)}
	for i := range res.Rows {
		res.Rows[i].OID, res.Rows[i].Values = row(i)
	}
	cp.results = append(cp.results, res)
}

// servedOptions opens a database behind kimsrv: full durability, and no
// automatic checkpoint, which at the default 8 MiB would not fall inside a
// run anyway but must not while two sessions write (see neverCheckpoint).
var servedOptions = oodb.Options{PoolPages: worldPool, CheckpointBytes: neverCheckpoint}

func startServer(in *instance, db *oodb.DB) (*server.Server, error) {
	srv := server.New(db, server.Options{})
	if err := srv.Start(); err != nil {
		return nil, err
	}
	// Drain answers ErrServerClosed when verify already drained.
	in.onClose(func() { _ = srv.Drain(5 * time.Second) })
	return srv, nil
}

func dial(in *instance, addr string) (*client.Client, error) {
	c, err := client.Dial(addr, client.Options{Role: "bench", RequestTimeout: 30 * time.Second})
	if err != nil {
		return nil, err
	}
	in.onClose(func() { _ = c.Close() })
	return c, nil
}

func setupWire(e *env) (*instance, error) {
	in := newInstance(e)
	db, err := openDB(in, filepath.Join(e.dir, "db"), servedOptions)
	if err != nil {
		return in, err
	}
	w := genWorld(e.seed)
	p, err := loadWorld(w, []*oodb.DB{db})
	if err != nil {
		return in, err
	}
	in.userBytes = p.userBytes
	if err := db.Checkpoint(); err != nil {
		return in, err
	}
	for i := range in.ops {
		if k := in.ops[i].Kind; k == kQuery || k == kQuerySnap {
			in.ops[i].want = w.expect(&in.ops[i])
		}
	}
	srv, err := startServer(in, db)
	if err != nil {
		return in, err
	}
	vehicles := make([]*vehicleClient, e.clients)
	for c := range in.clients {
		cl, err := dial(in, srv.Addr().String())
		if err != nil {
			return in, err
		}
		v := &vehicleClient{door: cl, spans: "client.Client.", w: w, oids: p.vehOID,
			written: &in.written[c], cp: in.captures[c], last: map[int]int64{}}
		vehicles[c] = v
		in.clients[c] = func(o *op, t *tracer) error {
			root := t.begin(kindNames[o.Kind])
			switch o.Kind {
			case kGet:
				err := v.get(o, t, root)
				if t.sampled() { // the embedded twin of the same read
					_ = t.span("twin.embedded.Get", func() error {
						obj, err := db.Fetch(p.vehOID[o.Arg])
						if err == nil {
							_, err = db.Get(obj, "weight")
						}
						return err
					})
				}
				return err
			case kFetch:
				return v.fetch(o, t, root)
			case kUpdate:
				return v.update(t, root, o.Arg*e.clients+c)
			case kQuery, kQuerySnap:
				var res *client.Result
				var err error
				if o.Kind == kQuery {
					err = t.span("client.Client.Query", func() (err error) { res, err = cl.Query(o.Stmt); return })
				} else {
					err = t.span("client.Client.QuerySnapshot", func() (err error) { res, err = cl.QuerySnapshot(o.Stmt); return })
				}
				t.end(root)
				if err != nil {
					return err
				}
				if t.sampled() {
					twin := t.begin("twin.embedded.Query")
					_, _ = splitQuery(db, o.Stmt, t)
					t.end(twin)
					v.cp.captureResult(res.Cols, len(res.Rows),
						func(i int) (model.OID, []model.Value) { return res.Rows[i].OID, res.Rows[i].Values })
				}
				in.rows[c] += int64(len(res.Rows))
				return checkPrint(o, fingerprint(len(res.Rows),
					func(i int) []model.Value { return res.Rows[i].Values }, ordered(o.Kind)))
			default: // kInsertTxn: one explicit transaction around one insert
				v.n++
				name := fmt.Sprintf("n%d-%d", c, v.n)
				attrs := map[string]model.Value{"vid": model.String(name), "weight": model.Int(v.n),
					"manufacturer": model.Ref(p.coOID[o.Arg])}
				in.written[c] += valueBytes(attrs)
				var oid oodb.OID
				err := t.span("client.Client.Begin", cl.Begin)
				if err == nil {
					err = t.span("client.Client.Insert", func() (err error) { oid, err = cl.Insert("Truck", attrs); return })
					if err != nil {
						_ = cl.Abort()
					}
				}
				if err == nil {
					err = t.span("client.Client.Commit", cl.Commit)
				}
				t.end(root)
				if err != nil {
					return err
				}
				v.inserted = append(v.inserted, insertedVehicle{oid, name})
				return nil
			}
		}
	}
	// After a drain, the embedded API must show every acknowledged insert
	// and each owned vehicle's last acknowledged weight.
	in.verify = func() (int, error) {
		if err := srv.Drain(5 * time.Second); err != nil {
			return 0, err
		}
		failed := 0
		for _, v := range vehicles {
			for _, ins := range v.inserted {
				obj, err := db.Fetch(ins.oid)
				if err != nil {
					failed++
					continue
				}
				if got, _ := db.Get(obj, "vid"); oodb.Compare(got, model.String(ins.vid)) != 0 {
					failed++
				}
			}
			for veh := range v.last {
				obj, err := db.Fetch(p.vehOID[veh])
				if err != nil {
					failed++
					continue
				}
				if got, _ := intAttr(db, obj, "weight"); got != v.updatedWeight(veh) {
					failed++
				}
			}
		}
		return failed, nil
	}
	return in, nil
}

func setupShard(e *env) (*instance, error) {
	in := newInstance(e)
	w := genWorld(e.seed)

	// The oracle: the same seed's data in one unsharded database answers
	// every scatter statement of the pool once, then goes away.
	refDir := filepath.Join(e.dir, "ref")
	ref, err := oodb.Open(refDir, oodb.Options{NoSync: true, PoolPages: worldPool})
	if err != nil {
		return in, err
	}
	closeRef := func() { _ = ref.Close(); _ = os.RemoveAll(refDir) }
	if _, err := loadWorld(w, []*oodb.DB{ref}); err != nil {
		closeRef()
		return in, err
	}
	for i := range in.ops {
		o := &in.ops[i]
		if o.Stmt == "" {
			continue
		}
		res, err := ref.Query(o.Stmt)
		if err != nil {
			closeRef()
			return in, err
		}
		o.want = queryPrint(res, o.Kind)
	}
	closeRef()

	var dbs []*oodb.DB
	for m := 0; m < shardMembers; m++ {
		db, err := openDB(in, filepath.Join(e.dir, fmt.Sprintf("member%d", m)), servedOptions)
		if err != nil {
			return in, err
		}
		dbs = append(dbs, db)
	}
	p, err := loadWorld(w, dbs)
	if err != nil {
		return in, err
	}
	in.userBytes = p.userBytes
	var addrs []string
	var servers []*server.Server
	for _, db := range dbs {
		if err := db.Checkpoint(); err != nil {
			return in, err
		}
		srv, err := startServer(in, db)
		if err != nil {
			return in, err
		}
		servers = append(servers, srv)
		addrs = append(addrs, srv.Addr().String())
	}

	// One router per client: the router is a library inside the
	// application, so each closed-loop client owns its member connections.
	routers := make([]*shard.Router, e.clients)
	for c := range routers {
		r, err := shard.New(addrs, shard.Options{Client: client.Options{Role: "bench", RequestTimeout: 30 * time.Second}})
		if err != nil {
			return in, err
		}
		in.onClose(func() { _ = r.Close() })
		routers[c] = r
	}
	// Vehicle identities in the router's global OID space.
	all, err := routers[0].Query("SELECT vid FROM Vehicle")
	if err != nil {
		return in, err
	}
	byVid := make(map[string]oodb.OID, len(all.Rows))
	for _, row := range all.Rows {
		s, _ := row.Values[0].AsString()
		byVid[s] = row.OID
	}
	global := make([]oodb.OID, nVehicles)
	for i := range global {
		g, ok := byVid[vid(i)]
		if !ok {
			return in, fmt.Errorf("shard set-up: vehicle %s missing from the scatter of all vehicles (%d rows)", vid(i), len(all.Rows))
		}
		global[i] = g
	}

	vehicles := make([]*vehicleClient, e.clients)
	for c := range in.clients {
		r := routers[c]
		v := &vehicleClient{door: r, spans: "shard.Router.", w: w, oids: global,
			written: &in.written[c], cp: in.captures[c], last: map[int]int64{}}
		vehicles[c] = v
		// Direct member connections for the slowest-leg twin.
		var legs []*client.Client
		if e.traced {
			for _, addr := range addrs {
				leg, err := dial(in, addr)
				if err != nil {
					return in, err
				}
				legs = append(legs, leg)
			}
		}
		in.clients[c] = func(o *op, t *tracer) error {
			root := t.begin(kindNames[o.Kind])
			switch o.Kind {
			case kRoutedGet:
				return v.get(o, t, root)
			case kRoutedFetch:
				return v.fetch(o, t, root)
			case kRoutedUpdate:
				return v.update(t, root, o.Arg*e.clients+c)
			default: // the three scatter kinds
				var res *shard.Result
				err := t.span("shard.Router.Query", func() (err error) { res, err = r.Query(o.Stmt); return })
				t.end(root)
				if err != nil {
					return err
				}
				if t.sampled() {
					for _, leg := range legs {
						_ = t.span("twin.leg.client.Query", func() error { _, err := leg.Query(o.Stmt); return err })
					}
					twin := t.begin("twin.embedded.Query")
					_, _ = splitQuery(dbs[0], o.Stmt, t)
					t.end(twin)
					v.cp.captureResult(res.Cols, len(res.Rows),
						func(i int) (model.OID, []model.Value) { return res.Rows[i].OID, res.Rows[i].Values })
				}
				in.rows[c] += int64(len(res.Rows))
				return checkPrint(o, fingerprint(len(res.Rows),
					func(i int) []model.Value { return res.Rows[i].Values }, ordered(o.Kind)))
			}
		}
	}
	// Each owned vehicle's last acknowledged weight must read back through
	// the router, and the members must drain cleanly.
	in.verify = func() (int, error) {
		failed := 0
		for _, v := range vehicles {
			for veh := range v.last {
				obj, err := v.door.Fetch(global[veh])
				if err != nil {
					failed++
					continue
				}
				if got, _ := obj.Attrs["weight"].AsInt(); got != v.updatedWeight(veh) {
					failed++
				}
			}
		}
		for _, r := range routers {
			_ = r.Close()
		}
		for _, srv := range servers {
			if err := srv.Drain(5 * time.Second); err != nil {
				return failed, err
			}
		}
		return failed, nil
	}
	return in, nil
}
