// Command kimsh is an interactive shell for a kimdb database: the
// programmatic interface of the engine exposed as a line-oriented tool
// (queries in the declarative language, dot-commands for DDL and object
// manipulation).
//
// Usage:
//
//	kimsh -db /path/to/dbdir
//	kimsh -connect host:port [-role r] [-token t]
//	kimsh -shards host1:p1,host2:p2,... [-role r] [-token t]
//
// With -db the shell embeds the engine. With -connect (or the .connect
// command) it becomes a remote shell: data commands — queries, .insert,
// .set, .del, .get, and the explicit .begin/.commit/.abort transaction
// commands — travel over the kimw wire protocol to a kimsrv, exercising
// exactly the client surface an application would. Schema and
// maintenance commands need the embedded engine and refuse politely in
// remote mode.
//
// With -shards the shell fronts a whole shard group: queries
// scatter-gather across every member, .insert places new objects by
// consistent hashing, and .set/.del/.get route to the owner recorded in
// the object's global OID. The .shard command inspects the group
// (.shard status / .shard place / .shard refresh).
//
// Commands:
//
//	SELECT ...                          run a query
//	.defclass Name [super,...]          define a class
//	.attr Class name Domain [set]       add an attribute
//	.index name Class path.dotted [ch]  create an index (ch = hierarchy)
//	.indexes                            list indexes
//	.classes                            list classes
//	.schema Class                       show a class's effective schema
//	.insert Class a=v b=v ...           insert an object
//	.set @c:s a=v ...                   update an object
//	.del @c:s                           delete an object
//	.get @c:s [attr]                    show an object, or one attribute
//	.explain SELECT ...                 show the query plan
//	.analyze SELECT ...                 run the query, show the annotated plan
//	.compact [Class]                    compact segments (all, or one class)
//	.stats [Class]                      collect and show planner statistics
//	.segments                           per class: pages, live records, occupancy, last automatic compaction
//	.metrics                            dump the obs metric snapshot as JSON
//	.checkpoint                         force a checkpoint
//	.connect host:port [role [token]]   switch to remote mode against a kimsrv
//	.disconnect                         drop the remote session
//	.begin / .commit / .abort           explicit transaction (remote mode)
//	.ping                               round-trip the wire (remote mode)
//	.shard status|place|refresh         inspect the shard group (shard mode)
//	.help / .quit
//
// Value literals: integers, floats, 'strings', true/false, null, @class:seq
// references, {v, v, ...} sets.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"

	"oodb"
	"oodb/internal/obs"
	"oodb/internal/server/client"
	"oodb/internal/shard"
)

func main() {
	dbdir := flag.String("db", "", "database directory (or use -connect for remote mode)")
	connect := flag.String("connect", "", "connect to a kimsrv at host:port instead of embedding the engine")
	shards := flag.String("shards", "", "comma-separated kimsrv addresses forming one sharded database")
	role := flag.String("role", "public", "role name for -connect / -shards")
	token := flag.String("token", "", "authentication token for -connect / -shards")
	httpAddr := flag.String("http", "", "serve /metrics and /debug/pprof on this address (e.g. localhost:6060)")
	flag.Parse()
	if *dbdir == "" && *connect == "" && *shards == "" {
		fmt.Fprintln(os.Stderr, "kimsh: need -db directory, -connect host:port, or -shards a,b,...")
		os.Exit(2)
	}
	if *httpAddr != "" {
		go func() {
			if err := http.ListenAndServe(*httpAddr, obs.NewMux(obs.Default())); err != nil {
				fmt.Fprintln(os.Stderr, "kimsh: -http:", err)
			}
		}()
	}
	sh := &shell{out: os.Stdout, errw: os.Stderr}
	if *dbdir != "" {
		db, err := oodb.Open(*dbdir, oodb.Options{})
		if err != nil {
			fmt.Fprintln(os.Stderr, "kimsh:", err)
			os.Exit(1)
		}
		defer db.Close()
		sh.db = db
	}
	if *connect != "" {
		if err := sh.connect([]string{*connect, *role, *token}); err != nil {
			fmt.Fprintln(os.Stderr, "kimsh:", err)
			os.Exit(1)
		}
	}
	if *shards != "" {
		r, err := shard.New(strings.Split(*shards, ","),
			shard.Options{Client: client.Options{Role: *role, Token: *token}})
		if err != nil {
			fmt.Fprintln(os.Stderr, "kimsh:", err)
			os.Exit(1)
		}
		r.Start()
		defer r.Close()
		sh.sharded = r
		healthy := 0
		for _, st := range r.Probe() {
			if st.Healthy {
				healthy++
			}
		}
		fmt.Fprintf(sh.out, "  shard group: %d members (%d healthy)\n", len(r.Addrs()), healthy)
	}
	defer func() {
		if sh.remote != nil {
			sh.remote.Close()
		}
	}()
	sh.run(os.Stdin)
}

// run reads commands from in until end of input or .quit.
func (sh *shell) run(in io.Reader) {
	sc := bufio.NewScanner(in)
	fmt.Fprint(sh.out, "kimdb> ")
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == ".quit" || line == ".exit" {
			break
		}
		if line != "" {
			if err := sh.exec(line); err != nil {
				fmt.Fprintln(sh.errw, "error:", err)
			}
		}
		fmt.Fprint(sh.out, "kimdb> ")
	}
	fmt.Fprintln(sh.out)
}

type shell struct {
	db        *oodb.DB
	out, errw io.Writer
	remote    *client.Client
	sharded   *shard.Router
}

// door is the data surface of whichever database the shell fronts. An
// open-mode *oodb.Session, a *client.Client and a *shard.Router all have
// it, so the data commands are written once (execData).
type door interface {
	Query(src string) (*client.Result, error)
	Fetch(oid oodb.OID) (*client.Object, error)
	Get(oid oodb.OID, attr string) (oodb.Value, error)
	Insert(class string, attrs oodb.Attrs) (oodb.OID, error)
	Update(oid oodb.OID, attrs oodb.Attrs) error
	Delete(oid oodb.OID) error
}

// door picks the shell's data surface: the shard group if there is one,
// else the remote session, else the embedded engine in open mode.
func (sh *shell) door() door {
	switch {
	case sh.sharded != nil:
		return sh.sharded
	case sh.remote != nil:
		return sh.remote
	case sh.db != nil:
		return sh.db.Session(nil, "")
	}
	return nil
}

func (sh *shell) exec(line string) error {
	fields := strings.Fields(line)
	// What only a shard group or only a remote session has comes first,
	// then the data commands against whichever door is open; everything
	// else needs the embedded engine.
	if sh.sharded != nil {
		if handled, err := sh.execShard(fields); handled {
			return err
		}
	}
	if sh.remote != nil {
		if handled, err := sh.execRemote(fields); handled {
			return err
		}
	}
	switch fields[0] {
	case ".connect":
		return sh.connect(fields[1:])
	case ".disconnect", ".begin", ".commit", ".abort", ".ping":
		return fmt.Errorf("not connected (use .connect host:port)")
	case ".shard":
		return fmt.Errorf("not sharded (start with -shards a,b,...)")
	}
	if d := sh.door(); d != nil {
		if handled, err := sh.execData(d, line, fields); handled {
			return err
		}
	}
	if sh.db == nil && line != ".help" {
		return fmt.Errorf("command needs the embedded engine (start with -db); remote mode carries data commands only")
	}
	switch {
	case line == ".help":
		fmt.Fprintln(sh.out, "queries: SELECT ... ; commands: .defclass .attr .index .indexes .classes .schema .insert .set .del .get .explain .analyze .compact .stats .segments .metrics .snapshot .snapshots .schemadiff .checkpoint .connect .disconnect .begin .commit .abort .ping .shard .quit")
		return nil
	case line == ".metrics":
		out, err := json.MarshalIndent(sh.db.Metrics(), "", "  ")
		if err != nil {
			return err
		}
		fmt.Fprintln(sh.out, string(out))
		return nil
	case strings.HasPrefix(line, ".analyze "):
		out, err := sh.db.ExplainAnalyze(strings.TrimSpace(strings.TrimPrefix(line, ".analyze")))
		if err != nil {
			return err
		}
		fmt.Fprintln(sh.out, out)
		return nil
	case line == ".classes":
		for _, cl := range sh.db.Engine().Catalog.Classes() {
			fmt.Fprintf(sh.out, "  %4d  %s\n", cl.ID, cl.Name)
		}
		return nil
	case line == ".indexes":
		for _, idx := range sh.db.Engine().Indexes.All() {
			kind := "single-class"
			if idx.Hierarchy {
				kind = "class-hierarchy"
			}
			if len(idx.Path) > 1 {
				kind += ", nested"
			}
			fmt.Fprintf(sh.out, "  %s on class %d path %v (%s, %d entries)\n",
				idx.Name, idx.Class, idx.Path, kind, idx.Len())
		}
		return nil
	case line == ".checkpoint":
		return sh.db.Checkpoint()
	case line == ".segments":
		return sh.segments()
	case line == ".snapshots":
		vs, err := sh.db.SchemaVersions()
		if err != nil {
			return err
		}
		for _, v := range vs {
			fmt.Fprintf(sh.out, "  %s (catalog version %d)\n", v.Label, v.Version)
		}
		return nil
	}
	switch fields[0] {
	case ".defclass":
		if len(fields) < 2 {
			return fmt.Errorf("usage: .defclass Name [super,...]")
		}
		var supers []string
		if len(fields) > 2 {
			supers = strings.Split(fields[2], ",")
		}
		_, err := sh.db.DefineClass(fields[1], supers)
		return err
	case ".attr":
		if len(fields) < 4 {
			return fmt.Errorf("usage: .attr Class name Domain [set]")
		}
		return sh.db.AddAttribute(fields[1], oodb.Attr{
			Name: fields[2], Domain: fields[3],
			SetValued: len(fields) > 4 && fields[4] == "set",
		})
	case ".index":
		if len(fields) < 4 {
			return fmt.Errorf("usage: .index name Class path.dotted [ch]")
		}
		hier := len(fields) > 4 && fields[4] == "ch"
		return sh.db.CreateIndex(fields[1], fields[2], strings.Split(fields[3], "."), hier)
	case ".snapshot":
		if len(fields) != 2 {
			return fmt.Errorf("usage: .snapshot label")
		}
		v, err := sh.db.SnapshotSchema(fields[1])
		if err != nil {
			return err
		}
		fmt.Fprintf(sh.out, "  snapshot %q at catalog version %d\n", fields[1], v)
		return nil
	case ".schemadiff":
		if len(fields) != 2 {
			return fmt.Errorf("usage: .schemadiff label")
		}
		diff, err := sh.db.DiffSchema(fields[1])
		if err != nil {
			return err
		}
		if len(diff) == 0 {
			fmt.Fprintln(sh.out, "  (no changes)")
		}
		for _, line := range diff {
			fmt.Fprintln(sh.out, " ", line)
		}
		return nil
	case ".schema":
		if len(fields) != 2 {
			return fmt.Errorf("usage: .schema Class")
		}
		return sh.schema(fields[1])
	case ".explain":
		plan, err := sh.db.Explain(strings.TrimSpace(strings.TrimPrefix(line, ".explain")))
		if err != nil {
			return err
		}
		fmt.Fprintln(sh.out, " ", plan)
		return nil
	case ".compact":
		return sh.compact(fields[1:])
	case ".stats":
		return sh.stats(fields[1:])
	default:
		return fmt.Errorf("unknown command %q (try .help)", fields[0])
	}
}

// segments lists every class's segment from the heap's own counters (no
// page is read) and when the manager last compacted it unasked.
func (sh *shell) segments() error {
	mnt := sh.db.Maintenance()
	fmt.Fprintf(sh.out, "  %-20s %8s %10s %9s  %s\n", "class", "pages", "live", "occupancy", "last auto-compaction")
	for _, cl := range sh.db.Engine().Catalog.Classes() {
		info, err := sh.db.Engine().SegmentInfo(cl.ID)
		if err != nil {
			return err
		}
		if info == nil {
			continue
		}
		last := "never"
		if when, ok := mnt.LastAutoCompaction(cl.ID); ok {
			last = when.Format("2006-01-02 15:04:05")
		}
		fmt.Fprintf(sh.out, "  %-20s %8d %10d %9.2f  %s\n", cl.Name, info.Pages, info.LiveRecords, info.Occupancy, last)
	}
	return nil
}

// segmentClasses resolves the optional class argument of .compact and
// .stats: the named class, or every class that has a segment.
func (sh *shell) segmentClasses(args []string) ([]*oodb.Class, error) {
	if len(args) == 1 {
		cl, err := sh.db.ClassByName(args[0])
		if err != nil {
			return nil, err
		}
		return []*oodb.Class{cl}, nil
	}
	var out []*oodb.Class
	for _, cl := range sh.db.Engine().Catalog.Classes() {
		info, err := sh.db.Engine().SegmentInfo(cl.ID)
		if err != nil {
			return nil, err
		}
		if info != nil {
			out = append(out, cl)
		}
	}
	return out, nil
}

// compact rewrites one class's segment (or every segment) online and
// reports the space recovered.
func (sh *shell) compact(args []string) error {
	classes, err := sh.segmentClasses(args)
	if err != nil {
		return err
	}
	for _, cl := range classes {
		res, err := sh.db.Engine().CompactClass(cl.ID)
		if err != nil {
			return err
		}
		fmt.Fprintf(sh.out, "  %s: %d pages -> %d pages\n", cl.Name, res.PagesBefore, res.PagesAfter)
	}
	return nil
}

// stats collects (or refreshes) planner statistics, persists them and
// prints them.
func (sh *shell) stats(args []string) error {
	classes, err := sh.segmentClasses(args)
	if err != nil {
		return err
	}
	for _, cl := range classes {
		if _, err := sh.db.Engine().AnalyzeClass(cl.ID); err != nil {
			return err
		}
	}
	if err := sh.db.Checkpoint(); err != nil {
		return err
	}
	cat := sh.db.Engine().Catalog
	reg := sh.db.Engine().Stats
	for _, cl := range classes {
		cs := reg.Get(cl.ID)
		if cs == nil {
			continue
		}
		fmt.Fprintf(sh.out, "  %s: cardinality=%d avg_size=%.1fB\n", cl.Name, cs.Cardinality, cs.AvgSize())
		attrs, err := cat.EffectiveAttrs(cl.ID)
		if err != nil {
			return err
		}
		for _, a := range attrs {
			as := cs.Attr(a.ID)
			if as == nil {
				continue
			}
			fmt.Fprintf(sh.out, "    %s: count=%d distinct=%d min=%s max=%s\n",
				a.Name, as.Count, as.Distinct, as.Min, as.Max)
		}
	}
	return nil
}

func (sh *shell) schema(name string) error {
	cl, err := sh.db.ClassByName(name)
	if err != nil {
		return err
	}
	cat := sh.db.Engine().Catalog
	fmt.Fprintf(sh.out, "  class %s (id %d)\n", cl.Name, cl.ID)
	if len(cl.Supers) > 0 {
		var supers []string
		for _, s := range cl.Supers {
			if sc, err := cat.Class(s); err == nil {
				supers = append(supers, sc.Name)
			}
		}
		fmt.Fprintf(sh.out, "  superclasses: %s\n", strings.Join(supers, ", "))
	}
	attrs, err := cat.EffectiveAttrs(cl.ID)
	if err != nil {
		return err
	}
	for _, a := range attrs {
		domain := fmt.Sprintf("class %d", a.Domain)
		if dc, err := cat.Class(a.Domain); err == nil {
			domain = dc.Name
		}
		set := ""
		if a.SetValued {
			set = " set-of"
		}
		inherited := ""
		if a.Source != cl.ID {
			if sc, err := cat.Class(a.Source); err == nil {
				inherited = fmt.Sprintf(" (inherited from %s)", sc.Name)
			}
		}
		fmt.Fprintf(sh.out, "    %s:%s %s%s\n", a.Name, set, domain, inherited)
	}
	return nil
}

// parseAttrs parses a=v pairs.
func parseAttrs(pairs []string) (oodb.Attrs, error) {
	out := oodb.Attrs{}
	for _, p := range pairs {
		eq := strings.IndexByte(p, '=')
		if eq <= 0 {
			return nil, fmt.Errorf("bad attribute %q (want name=value)", p)
		}
		v, err := parseValue(p[eq+1:])
		if err != nil {
			return nil, err
		}
		out[p[:eq]] = v
	}
	return out, nil
}

// parseValue parses a shell value literal.
func parseValue(s string) (oodb.Value, error) {
	switch {
	case s == "null":
		return oodb.Null, nil
	case s == "true":
		return oodb.Bool(true), nil
	case s == "false":
		return oodb.Bool(false), nil
	case strings.HasPrefix(s, "@"):
		oid, err := oodb.ParseOID(s)
		if err != nil {
			return oodb.Null, err
		}
		return oodb.Ref(oid), nil
	case strings.HasPrefix(s, "'") && strings.HasSuffix(s, "'") && len(s) >= 2:
		return oodb.String(s[1 : len(s)-1]), nil
	case strings.HasPrefix(s, "{") && strings.HasSuffix(s, "}"):
		inner := strings.TrimSpace(s[1 : len(s)-1])
		if inner == "" {
			return oodb.SetOf(), nil
		}
		var members []oodb.Value
		for _, m := range strings.Split(inner, ",") {
			v, err := parseValue(strings.TrimSpace(m))
			if err != nil {
				return oodb.Null, err
			}
			members = append(members, v)
		}
		return oodb.SetOf(members...), nil
	}
	if n, err := strconv.ParseInt(s, 10, 64); err == nil {
		return oodb.Int(n), nil
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return oodb.Float(f), nil
	}
	return oodb.String(s), nil
}

// connect dials a kimsrv and switches the shell to remote mode.
func (sh *shell) connect(args []string) error {
	if len(args) < 1 || args[0] == "" {
		return fmt.Errorf("usage: .connect host:port [role [token]]")
	}
	opts := client.Options{}
	if len(args) > 1 && args[1] != "" {
		opts.Role = args[1]
	}
	if len(args) > 2 {
		opts.Token = args[2]
	}
	c, err := client.Dial(args[0], opts)
	if err != nil {
		return err
	}
	if sh.remote != nil {
		_ = sh.remote.Close()
	}
	sh.remote = c
	role := opts.Role
	if role == "" {
		role = "public"
	}
	fmt.Fprintf(sh.out, "  connected to %s as %q (session %d)\n", args[0], role, c.SessionID())
	return nil
}

// execData runs the data commands — queries, .insert, .set, .del, .get —
// against d. It reports whether the line was one of them.
func (sh *shell) execData(d door, line string, fields []string) (bool, error) {
	if strings.HasPrefix(strings.ToLower(line), "select") {
		res, err := d.Query(line)
		if err != nil {
			sh.reportPartial(err)
			return true, err
		}
		fmt.Fprintln(sh.out, " ", strings.Join(res.Cols, " | "))
		for _, row := range res.Rows {
			parts := make([]string, len(row.Values))
			for i, v := range row.Values {
				parts[i] = v.String()
			}
			fmt.Fprintln(sh.out, " ", strings.Join(parts, " | "))
		}
		fmt.Fprintf(sh.out, "  (%d rows)\n", len(res.Rows))
		return true, nil
	}
	switch fields[0] {
	case ".insert":
		if len(fields) < 2 {
			return true, fmt.Errorf("usage: .insert Class a=v ...")
		}
		attrs, err := parseAttrs(fields[2:])
		if err != nil {
			return true, err
		}
		oid, err := d.Insert(fields[1], attrs)
		if err == nil {
			fmt.Fprintf(sh.out, "  @%s\n", oid)
		}
		return true, err
	case ".set":
		if len(fields) < 3 {
			return true, fmt.Errorf("usage: .set @c:s a=v ...")
		}
		oid, err := oodb.ParseOID(fields[1])
		if err != nil {
			return true, err
		}
		attrs, err := parseAttrs(fields[2:])
		if err != nil {
			return true, err
		}
		return true, d.Update(oid, attrs)
	case ".del":
		if len(fields) != 2 {
			return true, fmt.Errorf("usage: .del @c:s")
		}
		oid, err := oodb.ParseOID(fields[1])
		if err != nil {
			return true, err
		}
		return true, d.Delete(oid)
	case ".get":
		if len(fields) != 2 && len(fields) != 3 {
			return true, fmt.Errorf("usage: .get @c:s [attr]")
		}
		oid, err := oodb.ParseOID(fields[1])
		if err != nil {
			return true, err
		}
		if len(fields) == 3 {
			v, err := d.Get(oid, fields[2])
			if err == nil {
				fmt.Fprintf(sh.out, "    %s = %s\n", fields[2], v)
			}
			return true, err
		}
		obj, err := d.Fetch(oid)
		if err != nil {
			return true, err
		}
		fmt.Fprintf(sh.out, "  @%s (%s)\n", obj.OID, obj.Class)
		names := make([]string, 0, len(obj.Attrs))
		for name := range obj.Attrs {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(sh.out, "    %s = %s\n", name, obj.Attrs[name])
		}
		return true, nil
	}
	return false, nil
}

// reportPartial prints the banner of a scatter some members failed: the
// rows that did arrive are not the answer.
func (sh *shell) reportPartial(err error) {
	var pe *shard.PartialError
	if errors.As(err, &pe) && pe.Result != nil {
		for _, f := range pe.Failed {
			fmt.Fprintf(sh.out, "  ! member %d (%s) failed: %v\n", f.Member, f.Addr, f.Err)
		}
		fmt.Fprintf(sh.out, "  (partial: %d rows from surviving members, NOT the full answer)\n",
			len(pe.Result.Rows))
	}
}

// execRemote handles what only a remote session has: its lifetime, its
// explicit transaction and the wire ping.
func (sh *shell) execRemote(fields []string) (bool, error) {
	switch fields[0] {
	case ".disconnect":
		err := sh.remote.Close()
		sh.remote = nil
		fmt.Fprintln(sh.out, "  disconnected")
		return true, err
	case ".ping":
		return true, sh.remote.Ping()
	case ".begin":
		return true, sh.remote.Begin()
	case ".commit":
		return true, sh.remote.Commit()
	case ".abort":
		return true, sh.remote.Abort()
	}
	return false, nil
}

// execShard handles what only a shard group has: .shard, the group-wide
// .ping and the placement map's class list.
func (sh *shell) execShard(fields []string) (bool, error) {
	switch fields[0] {
	case ".shard":
		sub := "status"
		if len(fields) > 1 {
			sub = fields[1]
		}
		switch sub {
		case "status":
			for _, st := range sh.sharded.Probe() {
				state := "healthy"
				if !st.Healthy {
					state = "DOWN"
				}
				fmt.Fprintf(sh.out, "  member %d  %-21s  %s\n", st.Member, st.Addr, state)
			}
			return true, nil
		case "place":
			return true, sh.placement(true)
		case "refresh":
			if err := sh.sharded.Refresh(); err != nil {
				return true, err
			}
			fmt.Fprintln(sh.out, "  placement map refreshed")
			return true, nil
		default:
			return true, fmt.Errorf("usage: .shard status|place|refresh")
		}
	case ".ping":
		healthy := 0
		st := sh.sharded.Probe()
		for _, s := range st {
			if s.Healthy {
				healthy++
			}
		}
		if healthy < len(st) {
			return true, fmt.Errorf("%d/%d members healthy", healthy, len(st))
		}
		fmt.Fprintf(sh.out, "  %d/%d members healthy\n", healthy, len(st))
		return true, nil
	case ".classes":
		return true, sh.placement(false)
	}
	return false, nil
}

// placement prints the shard group's classes in name order, with the
// members that carry each when members is set.
func (sh *shell) placement(members bool) error {
	pm, err := sh.sharded.Placement()
	if err != nil {
		return err
	}
	names := make([]string, 0, len(pm))
	for name := range pm {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if members {
			fmt.Fprintf(sh.out, "  %s: members %v\n", name, pm[name])
		} else {
			fmt.Fprintf(sh.out, "  %s\n", name)
		}
	}
	return nil
}
