package oodb_test

// Whole-system experiments (EXPERIMENTS.md E15–E19, and the online
// compaction of DESIGN §11). Each family builds its fixed-scale world once,
// in the parent benchmark, checks the correctness precondition its claim
// rests on with b.Fatal, and times one op per iteration in sub-benchmarks,
// reporting the claim's figures with b.ReportMetric.

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"oodb"
	"oodb/internal/bench"
	"oodb/internal/model"
	"oodb/internal/obs"
	"oodb/internal/server"
	"oodb/internal/server/client"
	"oodb/internal/shard"
)

// --- Online compaction of a mostly-dead heap ------------------------------

// BenchmarkCompactDeadHeap inserts 10,000 padded objects, deletes nine in
// ten, and scans the class in full through a 32-page pool before and after
// the maintenance manager compacts its segment: one op is one scan, and
// each sub-benchmark reports the segment's pages.
func BenchmarkCompactDeadHeap(b *testing.B) {
	const objects = 10000
	dir := b.TempDir()
	db, err := oodb.Open(dir, oodb.Options{NoSync: true, PoolPages: 4096, CheckpointBytes: 1 << 30})
	if err != nil {
		b.Fatal(err)
	}
	db.Maintenance().Stop() // the "before" scan needs the dead space
	if _, err := db.DefineClass("P", nil,
		oodb.Attr{Name: "n", Domain: "Integer"}, oodb.Attr{Name: "pad", Domain: "String"}); err != nil {
		b.Fatal(err)
	}
	// Every insert lands before any delete, so no hole is refilled.
	pad := oodb.String(strings.Repeat("x", 200))
	oids := make([]oodb.OID, objects)
	for _, del := range []bool{false, true} {
		for lo := 0; lo < objects; lo += 500 {
			err := db.Do(func(tx *oodb.Tx) (err error) {
				for i := lo; i < lo+500 && err == nil; i++ {
					if !del {
						oids[i], err = tx.Insert("P", oodb.Attrs{"n": oodb.Int(int64(i)), "pad": pad})
					} else if i%10 != 0 {
						err = tx.Delete(oids[i])
					}
				}
				return err
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := db.Close(); err != nil {
		b.Fatal(err)
	}
	db = openCold(b, dir, 32)
	cls := mustClassID(b, db, "P")
	scan := func(b *testing.B) {
		info, err := db.Engine().SegmentInfo(cls)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			if n := mustRows(b, db, `SELECT * FROM P WHERE n >= 0`); n != objects/10 {
				b.Fatalf("scan saw %d rows, want %d", n, objects/10)
			}
		}
		b.ReportMetric(float64(info.Pages), "pages")
	}
	b.Run("before", scan)
	if _, err := db.Engine().CompactClass(cls); err != nil {
		b.Fatal(err)
	}
	b.Run("after", scan)
}

// --- E15: snapshot readers beside a bulk writer ---------------------------

// BenchmarkE15_Snapshot has 8 readers share b.N full scans of a
// 4,000-object class: snapshot scans alone (readonly), snapshot scans
// beside a writer committing 64-object updates back to back (mvcc), and
// S-locking scans beside the same writer (locked). The claim is mvcc within
// 1.5× of readonly.
func BenchmarkE15_Snapshot(b *testing.B) {
	const readers, objects, batch = 8, 4000, 64
	db := openBenchDB(b)
	if _, err := db.DefineClass("R", nil, oodb.Attr{Name: "n", Domain: "Integer"}); err != nil {
		b.Fatal(err)
	}
	var oids []oodb.OID
	for len(oids) < objects {
		err := db.Do(func(tx *oodb.Tx) error {
			for j := 0; j < 500; j++ {
				oid, err := tx.Insert("R", oodb.Attrs{"n": oodb.Int(int64(len(oids)))})
				if err != nil {
					return err
				}
				oids = append(oids, oid)
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	res, err := db.QuerySnapshot(`SELECT * FROM R`)
	if err != nil || len(res.Rows) != objects {
		b.Fatalf("snapshot query before contention: %d of %d objects, %v", len(res.Rows), objects, err)
	}
	cls := mustClassID(b, db, "R")
	all := func(*oodb.Object) bool { return true }
	snapshot := func() error {
		tx := db.BeginSnapshot()
		defer tx.Commit()
		return tx.Scan(cls, all)
	}
	locked := func() error {
		tx := db.Begin()
		if err := tx.Scan(cls, all); err != nil {
			tx.Abort()
			return err
		}
		return tx.Commit()
	}
	writer := func(stop <-chan struct{}, commits *atomic.Int64) {
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			err := db.Do(func(tx *oodb.Tx) error {
				for j := 0; j < batch; j++ {
					if err := tx.Update(oids[(i*batch+j)%objects], oodb.Attrs{"n": oodb.Int(int64(i))}); err != nil {
						return err
					}
				}
				return nil
			})
			if err == nil {
				commits.Add(1)
			}
		}
	}
	for _, mode := range []struct {
		name      string
		scan      func() error
		withWrite bool
	}{{"readonly", snapshot, false}, {"mvcc", snapshot, true}, {"locked", locked, true}} {
		b.Run(mode.name, func(b *testing.B) {
			var left, aborts, commits atomic.Int64
			left.Store(int64(b.N))
			stop := make(chan struct{})
			var wg, ww sync.WaitGroup
			if mode.withWrite {
				ww.Add(1)
				go func() { defer ww.Done(); writer(stop, &commits) }()
			}
			start := time.Now()
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for left.Add(-1) >= 0 {
						if mode.scan() != nil {
							aborts.Add(1)
						}
					}
				}()
			}
			wg.Wait()
			elapsed := time.Since(start)
			close(stop)
			ww.Wait()
			b.ReportMetric(float64(b.N)/elapsed.Seconds(), "scans/s")
			b.ReportMetric(float64(commits.Load()), "writer_commits")
			b.ReportMetric(float64(aborts.Load()), "aborted_scans")
		})
	}
}

// --- E16: durable commits through the group-commit pipeline ---------------

// BenchmarkE16_DurableCommits has 32 committers share b.N single-insert
// transactions through db.Do with fsync on. The WAL's fsync-latency
// histogram in the obs registry counts the fsyncs that carried them.
func BenchmarkE16_DurableCommits(b *testing.B) {
	const committers = 32
	db, err := oodb.Open(b.TempDir(), oodb.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	if _, err := db.DefineClass("P", nil, oodb.Attr{Name: "n", Domain: "Integer"}); err != nil {
		b.Fatal(err)
	}
	fsyncs := func() uint64 { return obs.TakeSnapshot().Histograms["wal_fsync_latency_ns"].Count }
	before := fsyncs()
	var next atomic.Int64
	var wg sync.WaitGroup
	b.ResetTimer()
	start := time.Now()
	for w := 0; w < committers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next.Add(1); i <= int64(b.N); i = next.Add(1) {
				if err := db.Do(func(tx *oodb.Tx) error {
					_, err := tx.Insert("P", oodb.Attrs{"n": oodb.Int(i)})
					return err
				}); err != nil {
					b.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	b.StopTimer()
	n := fsyncs() - before
	if n == 0 {
		b.Fatal("obs saw no fsync: durable commits were not durable")
	}
	b.ReportMetric(float64(b.N)/float64(n), "commits/fsync")
	b.ReportMetric(float64(b.N)/elapsed.Seconds(), "commits/s")
}

// --- E17: composite clustering on OO1 navigation -------------------------

// BenchmarkE17_OO1 builds one 8,000-part OO1 graph (3 connections a part,
// 90% to the 1% nearest pids) shuffled among 4 padded noise parts each,
// which are then deleted, and copies it into three layouts: as built
// (fragmented), compacted in scan order (compacted), and reclustered —
// composite.Recluster from each of the 4 roots, one transaction per root,
// then compacted in scan order (reclustered). One op is depth-first
// closure traversals from the 4 roots through a cold 64-page pool. Each
// layout reports its pages and its misses per op. The precondition: every
// layout traverses the same graph, reclustering costs no page over
// compaction, and its cold pass misses less than compaction's.
func BenchmarkE17_OO1(b *testing.B) {
	const parts, seed = 8000, 17
	src := b.TempDir()
	db, err := oodb.Open(src, oodb.Options{NoSync: true, PoolPages: 8192, CheckpointBytes: 1 << 30})
	if err != nil {
		b.Fatal(err)
	}
	db.Maintenance().Stop()
	g, err := bench.BuildOO1(db, parts, 3, 4, seed)
	if err != nil {
		b.Fatal(err)
	}
	cm, err := db.Composites()
	if err == nil {
		err = cm.DeclareComposite(mustClassID(b, db, "Part"), "to", false)
	}
	if err == nil {
		err = db.Close()
	}
	if err != nil {
		b.Fatal(err)
	}
	roots := []int{0, parts / 4, parts / 2, 3 * parts / 4}
	closures := func(b *testing.B, db *oodb.DB) (visits int, hash uint64) {
		for _, root := range roots {
			v, h, err := g.Closure(db, root)
			if err != nil {
				b.Fatal(err)
			}
			visits, hash = visits+v, hash*1099511628211^h
		}
		return visits, hash
	}

	type layout struct {
		name               string
		recluster, compact bool
		dir                string
		pages, misses      int
	}
	fragmented := &layout{name: "fragmented"}
	compacted := &layout{name: "compacted", compact: true}
	reclustered := &layout{name: "reclustered", recluster: true, compact: true}
	layouts := []*layout{fragmented, compacted, reclustered}
	var want [2]uint64
	for i, l := range layouts {
		l.dir = copyDir(b, src)
		db, err := oodb.Open(l.dir, oodb.Options{NoSync: true, PoolPages: 8192})
		if err != nil {
			b.Fatal(err)
		}
		db.Maintenance().Stop()
		if l.recluster {
			cm, err := db.Composites()
			if err != nil {
				b.Fatal(err)
			}
			for _, root := range roots {
				if err := db.Do(func(tx *oodb.Tx) error {
					_, err := cm.Recluster(tx, g.Parts[root])
					return err
				}); err != nil {
					b.Fatal(err)
				}
			}
		}
		cls := mustClassID(b, db, "Part")
		if l.compact {
			if _, err := db.Engine().CompactClass(cls); err != nil {
				b.Fatal(err)
			}
		}
		info, err := db.Engine().SegmentInfo(cls)
		if err != nil {
			b.Fatal(err)
		}
		l.pages = info.Pages
		if err := db.Close(); err != nil {
			b.Fatal(err)
		}

		db = openCold(b, l.dir, 64)
		_, m0 := db.Engine().Store.PoolStats()
		visits, hash := closures(b, db)
		_, m1 := db.Engine().Store.PoolStats()
		l.misses = int(m1 - m0)
		db.Close()
		if got := [2]uint64{uint64(visits), hash}; i == 0 {
			want = got
		} else if got != want {
			b.Fatalf("%s traversal fingerprint (visits, hash) = %x, fragmented %x", l.name, got, want)
		}
	}
	if reclustered.pages != compacted.pages {
		b.Fatalf("reclustered segment has %d pages, compacted %d", reclustered.pages, compacted.pages)
	}
	if reclustered.misses >= compacted.misses {
		b.Fatalf("reclustered cold pass missed %d times, compacted %d: clustering gained nothing", reclustered.misses, compacted.misses)
	}
	for _, l := range layouts {
		b.Run(l.name, func(b *testing.B) {
			var misses uint64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				db := openCold(b, l.dir, 64)
				_, m0 := db.Engine().Store.PoolStats()
				b.StartTimer()
				closures(b, db)
				b.StopTimer()
				_, m1 := db.Engine().Store.PoolStats()
				misses += m1 - m0
				db.Close()
				b.StartTimer()
			}
			b.ReportMetric(float64(l.pages), "pages")
			b.ReportMetric(float64(misses)/float64(b.N), "misses/op")
		})
	}
}

// --- E18: concurrent wire sessions against one kimsrv ---------------------

// BenchmarkE18_Sessions256 has 256 wire clients over loopback TCP share b.N
// requests of a mixed workload against one in-process kimsrv — attribute
// reads, fetches, auto-commit updates, snapshot queries, and a
// Begin/Insert/Commit every 16th request — over 2,000 objects, then drains
// the server. Any shed or error fails the benchmark; it reports the
// client-observed latency quantiles and the drain time.
func BenchmarkE18_Sessions256(b *testing.B) {
	const sessions, preload = 256, 2000
	db := openBenchDB(b)
	if _, err := db.DefineClass("Part", nil,
		oodb.Attr{Name: "name", Domain: "String"}, oodb.Attr{Name: "weight", Domain: "Integer"}); err != nil {
		b.Fatal(err)
	}
	var oids []oodb.OID
	for len(oids) < preload {
		err := db.Do(func(tx *oodb.Tx) error {
			for j := 0; j < 500; j++ {
				oid, err := tx.Insert("Part", oodb.Attrs{
					"name": oodb.String(fmt.Sprintf("part-%d", len(oids))), "weight": oodb.Int(int64(len(oids)))})
				if err != nil {
					return err
				}
				oids = append(oids, oid)
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	srv := server.New(db, server.Options{MaxSessions: sessions + 8})
	if err := srv.Start(); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { srv.Close() })
	clients := make([]*client.Client, sessions)
	for i := range clients {
		c, err := client.Dial(srv.Addr().String(), client.Options{Role: "bench"})
		if err != nil {
			b.Fatal(err)
		}
		clients[i] = c
	}
	if n := srv.Sessions(); n != sessions {
		b.Fatalf("%d live sessions, want %d", n, sessions)
	}
	request := func(c *client.Client, s, n int) error {
		oid := oids[(s*2654435761+n)%len(oids)]
		switch n % 16 {
		case 0:
			if err := c.Begin(); err != nil {
				return err
			}
			if _, err := c.Insert("Part", oodb.Attrs{"name": oodb.String("txp"), "weight": oodb.Int(int64(n))}); err != nil {
				c.Abort()
				return err
			}
			return c.Commit()
		case 1:
			return c.Update(oid, oodb.Attrs{"weight": oodb.Int(int64(n % 10000))})
		case 2:
			_, err := c.QuerySnapshot(fmt.Sprintf(`SELECT name FROM Part WHERE weight = %d`, n%10000))
			return err
		case 3:
			_, err := c.Fetch(oid)
			return err
		default:
			_, err := c.Get(oid, "weight")
			return err
		}
	}
	lat := make([][]time.Duration, sessions)
	var next atomic.Int64
	var wg sync.WaitGroup
	b.ResetTimer()
	for s, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := int(next.Add(1)) - 1; n < b.N; n = int(next.Add(1)) - 1 {
				t0 := time.Now()
				if err := request(c, s, n); err != nil {
					b.Errorf("session %d (shed: %v): %v", s, client.Retryable(err), err)
					return
				}
				lat[s] = append(lat[s], time.Since(t0))
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
	for _, c := range clients {
		c.Close()
	}
	d0 := time.Now()
	if err := srv.Drain(10 * time.Second); err != nil {
		b.Fatal(err)
	}
	drain := time.Since(d0)
	all := slices.Concat(lat...)
	slices.Sort(all)
	for _, q := range []struct {
		unit string
		at   float64
	}{{"p50_us", 0.50}, {"p99_us", 0.99}, {"p999_us", 0.999}} {
		if len(all) > 0 {
			b.ReportMetric(float64(all[int(q.at*float64(len(all)-1))].Microseconds()), q.unit)
		}
	}
	b.ReportMetric(float64(drain.Microseconds())/1e3, "drain_ms")
}

// --- E19: one database over N kimsrv members ------------------------------

// BenchmarkE19_ScaleOut loads the same 2,000 page-sized records through a
// shard router into 1 and into 4 loopback kimsrv members, each with a
// 768-page pool: a quarter of the data fits a member's pool, the whole does
// not. One op is one selective full-scan query with every member's data
// file dropped from the OS page cache first, so a member has only its
// pool — the memory it would own on its own machine. A selective query
// must answer identically on both layouts before anything is timed.
func BenchmarkE19_ScaleOut(b *testing.B) {
	const objects, pool = 2000, 768
	probe := `SELECT name, weight FROM Part WHERE weight >= 0 AND weight < 100`
	var bands []string
	for lo := 0; lo < objects; lo += objects / 8 {
		bands = append(bands, fmt.Sprintf(`SELECT name, weight FROM Part WHERE weight >= %d AND weight < %d`, lo, lo+30))
	}
	type group struct {
		router *shard.Router
		dbs    []*oodb.DB
		files  []string
	}
	groups := map[int]*group{}
	var want uint64
	for _, members := range []int{1, 4} {
		g := &group{}
		var addrs []string
		for i := 0; i < members; i++ {
			dir := b.TempDir()
			db, err := oodb.Open(dir, oodb.Options{NoSync: true, PoolPages: pool})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { db.Close() })
			g.dbs = append(g.dbs, db)
			if _, err := db.DefineClass("Part", nil, oodb.Attr{Name: "name", Domain: "String"},
				oodb.Attr{Name: "weight", Domain: "Integer"}, oodb.Attr{Name: "pad", Domain: "String"}); err != nil {
				b.Fatal(err)
			}
			srv := server.New(db, server.Options{})
			if err := srv.Start(); err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { srv.Drain(5 * time.Second) })
			addrs = append(addrs, srv.Addr().String())
			g.files = append(g.files, filepath.Join(dir, "data.kdb"))
		}
		r, err := shard.New(addrs, shard.Options{Client: client.Options{Role: "bench", RequestTimeout: 30 * time.Second}})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { r.Close() })
		g.router = r
		// Records just under a page (MaxRecord is ~4060 bytes): one page an object.
		pad := model.String(strings.Repeat("x", 3600))
		for i := 0; i < objects; i++ {
			if _, err := r.Insert("Part", map[string]model.Value{
				"name": model.String(fmt.Sprintf("part-%06d", i)), "weight": model.Int(int64(i)), "pad": pad}); err != nil {
				b.Fatal(err)
			}
		}
		// The page cache keeps dirty pages whatever fadvise says: checkpoint,
		// then fsync (NoSync members skip the checkpoint's own).
		for i, db := range g.dbs {
			if err := db.Checkpoint(); err != nil {
				b.Fatal(err)
			}
			f, err := os.Open(g.files[i])
			if err == nil {
				err = f.Sync()
				f.Close()
			}
			if err != nil {
				b.Fatal(err)
			}
		}
		res, err := r.Query(probe)
		if err != nil || len(res.Rows) == 0 {
			b.Fatalf("probe on %d members: %d rows, %v", members, len(res.Rows), err)
		}
		if fp := fingerprintRows(res); want == 0 {
			want = fp
		} else if fp != want {
			b.Fatalf("probe fingerprint on %d members %x, on 1 member %x", members, fp, want)
		}
		groups[members] = g
	}
	for _, members := range []int{1, 4} {
		g := groups[members]
		b.Run(fmt.Sprintf("members=%d", members), func(b *testing.B) {
			for _, q := range bands { // warm: each pool keeps what fits
				if _, err := g.router.Query(q); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, f := range g.files {
					dropFileCache(f)
				}
				if _, err := g.router.Query(bands[i%len(bands)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// fingerprintRows hashes a result's row values order-insensitively: OIDs
// differ between layouts by construction, values must not.
func fingerprintRows(res *shard.Result) uint64 {
	rows := make([][]byte, len(res.Rows))
	for i, row := range res.Rows {
		for _, v := range row.Values {
			rows[i] = model.AppendValue(rows[i], v)
		}
	}
	slices.SortFunc(rows, bytes.Compare)
	h := fnv.New64a()
	for _, r := range rows {
		h.Write(r)
		h.Write([]byte{'\n'})
	}
	return h.Sum64()
}
