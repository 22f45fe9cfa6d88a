package shard

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"oodb/internal/model"
	"oodb/internal/query"
	"oodb/internal/server/client"
)

// Options configures a Router. The zero value is usable.
type Options struct {
	// Client configures every member connection (role, token, timeout).
	Client client.Options
}

// Fixed policy of the router.
const (
	// vnodes is the virtual node count per member on the hash ring.
	vnodes = 64
	// fanout bounds concurrent member requests per scatter.
	fanout = 4
	// probeInterval is the health-probe period.
	probeInterval = 2 * time.Second
	// A retryable member error (admission shed, session limit —
	// client.Retryable) is retried up to retries times, the first after
	// retryBase, doubling up to retryCap.
	retries   = 3
	retryBase = 25 * time.Millisecond
	retryCap  = time.Second
)

// member is one kimsrv process in the shard set.
type member struct {
	idx     int
	addr    string
	rd      *client.Redialer
	healthy atomic.Bool
}

// Router presents N kimsrv members as one logical database: scatter-
// gather queries, owner-routed single-object operations, health probes.
// Safe for concurrent use.
type Router struct {
	members []*member
	ring    *ring

	mu        sync.Mutex
	placement map[string]map[int]bool // class -> members whose schema carries it

	insertSeq atomic.Uint64
	closed    atomic.Bool
	probeStop chan struct{}
	probeWg   sync.WaitGroup
}

// New returns a router over the given member addresses. Member indexes —
// and therefore the OID space — follow the order of addrs, so a shard
// set must keep its address list stable (append-only) across restarts.
// No connection is made until the first operation or Start.
func New(addrs []string, opts Options) (*Router, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("%w: empty member list", ErrNoMember)
	}
	if len(addrs) > MaxMembers {
		return nil, fmt.Errorf("%w: %d members exceed the %d the OID scheme can route",
			ErrOIDSpace, len(addrs), MaxMembers)
	}
	r := &Router{
		ring:      newRing(len(addrs), vnodes),
		placement: make(map[string]map[int]bool),
		probeStop: make(chan struct{}),
	}
	for i, addr := range addrs {
		r.members = append(r.members, &member{
			idx:  i,
			addr: addr,
			rd:   client.NewRedialer(addr, opts.Client),
		})
	}
	return r, nil
}

// Start launches the health prober (one immediate probe, then every
// probeInterval). Optional: the router works without it, but Status and
// the shard_members_healthy gauge stay cold.
func (r *Router) Start() {
	r.probe()
	r.probeWg.Add(1)
	go func() {
		defer r.probeWg.Done()
		t := time.NewTicker(probeInterval)
		defer t.Stop()
		for {
			select {
			case <-r.probeStop:
				return
			case <-t.C:
				r.probe()
			}
		}
	}()
}

// probe pings every member once and publishes the health gauge.
func (r *Router) probe() {
	healthy := int64(0)
	for _, m := range r.members {
		err := m.rd.DoIdempotent(func(c *client.Client) error { return c.Ping() })
		if err != nil {
			mProbeFailures.Add(1)
			m.healthy.Store(false)
			continue
		}
		m.healthy.Store(true)
		healthy++
	}
	mMembersHealthy.Set(healthy)
}

// Close stops the prober and closes every member connection.
func (r *Router) Close() error {
	if r.closed.Swap(true) {
		return nil
	}
	close(r.probeStop)
	r.probeWg.Wait()
	for _, m := range r.members {
		_ = m.rd.Close()
	}
	return nil
}

// MemberStatus is one member's view in Status.
type MemberStatus struct {
	Member  int
	Addr    string
	Healthy bool
}

// Status reports each member's last probe outcome (call Start, or Probe
// once, for fresh data).
func (r *Router) Status() []MemberStatus {
	out := make([]MemberStatus, len(r.members))
	for i, m := range r.members {
		out[i] = MemberStatus{Member: m.idx, Addr: m.addr, Healthy: m.healthy.Load()}
	}
	return out
}

// Probe runs one synchronous health sweep (for callers not using Start).
func (r *Router) Probe() []MemberStatus {
	r.probe()
	return r.Status()
}

// Addrs returns the member addresses in index order.
func (r *Router) Addrs() []string {
	out := make([]string, len(r.members))
	for i, m := range r.members {
		out[i] = m.addr
	}
	return out
}

// call runs one operation against a member, retrying retryable failures
// (admission-control sheds, session limits) with capped exponential
// backoff. idempotent selects the redial heal mode: idempotent
// operations (reads, converging writes) also retry connection errors
// raised mid-round-trip, while non-idempotent ones (Insert, Delete)
// only retry requests that provably never reached the wire — a lost
// response must surface as the member's failure, never re-send and
// possibly double-execute (see client.Redialer.Do vs DoIdempotent).
func (r *Router) call(m *member, idempotent bool, fn func(*client.Client) error) error {
	do := m.rd.Do
	if idempotent {
		do = m.rd.DoIdempotent
	}
	backoff := retryBase
	for attempt := 0; ; attempt++ {
		err := do(fn)
		if err == nil || !client.Retryable(err) || attempt >= retries {
			return err
		}
		mRetries.Add(1)
		time.Sleep(backoff)
		backoff *= 2
		if backoff > retryCap {
			backoff = retryCap
		}
	}
}

// routed runs one single-object operation on the member that owns it:
// counted, healed by call, and a failure wrapped as that member's
// MemberError.
func (r *Router) routed(m *member, idempotent bool, fn func(*client.Client) error) error {
	mRoutedOps.Add(1)
	if err := r.call(m, idempotent, fn); err != nil {
		mRoutedErrors.Add(1)
		return MemberError{Member: m.idx, Addr: m.addr, Err: err}
	}
	return nil
}

// --- Placement ----------------------------------------------------------

// Refresh rebuilds the per-class placement map by asking every member
// for its class list. It fails — leaving the previous map in place — if
// any member cannot answer: building a partial map would silently
// shrink scatters, which is exactly what the partial-failure contract
// forbids.
func (r *Router) Refresh() error {
	classes := make(map[string]map[int]bool)
	for _, m := range r.members {
		var names []string
		err := r.call(m, true, func(c *client.Client) error {
			var err error
			names, err = c.Classes()
			return err
		})
		if err != nil {
			return fmt.Errorf("shard: refresh: member %d (%s): %w", m.idx, m.addr, err)
		}
		for _, name := range names {
			set := classes[name]
			if set == nil {
				set = make(map[int]bool)
				classes[name] = set
			}
			set[m.idx] = true
		}
	}
	r.mu.Lock()
	r.placement = classes
	r.mu.Unlock()
	return nil
}

// Placement returns the class → member-indexes map (sorted), refreshing
// it if empty.
func (r *Router) Placement() (map[string][]int, error) {
	r.mu.Lock()
	empty := len(r.placement) == 0
	r.mu.Unlock()
	if empty {
		if err := r.Refresh(); err != nil {
			return nil, err
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string][]int, len(r.placement))
	for class, set := range r.placement {
		idxs := make([]int, 0, len(set))
		for i := range set {
			idxs = append(idxs, i)
		}
		sort.Ints(idxs)
		out[class] = idxs
	}
	return out, nil
}

// membersFor returns the members carrying class, in index order. An
// unknown class triggers one placement refresh before failing — as a
// member would fail it, with client.ErrNotFound (beside ErrNoMember).
func (r *Router) membersFor(class string) ([]*member, error) {
	for refreshed := false; ; refreshed = true {
		r.mu.Lock()
		set, ok := r.placement[class]
		r.mu.Unlock()
		if ok {
			out := make([]*member, 0, len(set))
			for _, m := range r.members {
				if set[m.idx] {
					out = append(out, m)
				}
			}
			return out, nil
		}
		if refreshed {
			return nil, fmt.Errorf("%w: class %q on no member: %w", ErrNoMember, class, client.ErrNotFound)
		}
		if err := r.Refresh(); err != nil {
			return nil, err
		}
	}
}

// refMembers collects into set the owning member index of every
// reference inside v (recursively through sets). Nil references carry
// no placement and are skipped.
func refMembers(v model.Value, set map[int]bool) {
	switch v.Kind() {
	case model.KindRef:
		g, _ := v.AsRef()
		if g.IsNil() {
			return
		}
		owner, _ := splitOID(g)
		set[owner] = true
	case model.KindSet:
		vals, _ := v.AsSet()
		for _, e := range vals {
			refMembers(e, set)
		}
	}
}

// memberOf resolves a global OID's owner.
func (r *Router) memberOf(g model.OID) (*member, model.OID, error) {
	idx, local := splitOID(g)
	if idx >= len(r.members) {
		return nil, model.NilOID, fmt.Errorf("%w: OID %s names member %d of %d",
			ErrNoMember, g, idx, len(r.members))
	}
	return r.members[idx], local, nil
}

// --- Single-object operations ------------------------------------------

// Insert creates an object and returns its global OID. References pin
// placement: an insert whose attributes reference existing objects
// lands on the referents' member (references never cross members, so
// the referents must all share one — ErrCrossMember otherwise). A
// ref-free insert is placed by the hash ring among the members whose
// schema carries the class. Either way the placement is permanent: the
// returned OID records the member, so reads never consult the ring.
func (r *Router) Insert(class string, attrs map[string]model.Value) (model.OID, error) {
	members, err := r.membersFor(class)
	if err != nil {
		return model.NilOID, err
	}
	allowed := make(map[int]bool, len(members))
	for _, m := range members {
		allowed[m.idx] = true
	}
	refs := make(map[int]bool)
	for _, v := range attrs {
		refMembers(v, refs)
	}
	var idx int
	switch {
	case len(refs) > 1:
		owners := make([]int, 0, len(refs))
		for i := range refs {
			owners = append(owners, i)
		}
		sort.Ints(owners)
		return model.NilOID, fmt.Errorf("%w: insert references objects on members %v",
			ErrCrossMember, owners)
	case len(refs) == 1:
		for i := range refs {
			idx = i
		}
		if idx >= len(r.members) {
			return model.NilOID, fmt.Errorf("%w: reference names member %d of %d",
				ErrNoMember, idx, len(r.members))
		}
		if !allowed[idx] {
			return model.NilOID, fmt.Errorf("%w: class %q not on member %d, where the referenced objects live",
				ErrNoMember, class, idx)
		}
	default:
		key := class + "#" + strconv.FormatUint(r.insertSeq.Add(1), 10)
		idx = r.ring.owner(key, allowed)
		if idx < 0 {
			return model.NilOID, fmt.Errorf("%w: class %q on no member", ErrNoMember, class)
		}
	}
	m := r.members[idx]
	local := make(map[string]model.Value, len(attrs))
	for name, v := range attrs {
		lv, err := toLocal(m.idx, v)
		if err != nil {
			return model.NilOID, err
		}
		local[name] = lv
	}
	var oid model.OID
	if err := r.routed(m, false, func(c *client.Client) (err error) {
		oid, err = c.Insert(class, local)
		return err
	}); err != nil {
		return model.NilOID, err
	}
	return globalOID(m.idx, oid)
}

// Fetch returns the object with its effective attributes; reference
// values come back in the global OID space.
func (r *Router) Fetch(g model.OID) (*client.Object, error) {
	m, local, err := r.memberOf(g)
	if err != nil {
		return nil, err
	}
	var obj *client.Object
	if err := r.routed(m, true, func(c *client.Client) (err error) {
		obj, err = c.Fetch(local)
		return err
	}); err != nil {
		return nil, err
	}
	out := &client.Object{OID: g, Class: obj.Class, Attrs: make(map[string]model.Value, len(obj.Attrs))}
	for name, v := range obj.Attrs {
		gv, err := toGlobal(m.idx, v)
		if err != nil {
			return nil, err
		}
		out.Attrs[name] = gv
	}
	return out, nil
}

// Get reads one attribute; reference values come back global.
func (r *Router) Get(g model.OID, attr string) (model.Value, error) {
	m, local, err := r.memberOf(g)
	if err != nil {
		return model.Null, err
	}
	var v model.Value
	if err := r.routed(m, true, func(c *client.Client) (err error) {
		v, err = c.Get(local, attr)
		return err
	}); err != nil {
		return model.Null, err
	}
	return toGlobal(m.idx, v)
}

// Update writes attributes on the owning member. Reference values must
// be local to that member.
func (r *Router) Update(g model.OID, attrs map[string]model.Value) error {
	m, local, err := r.memberOf(g)
	if err != nil {
		return err
	}
	lattrs := make(map[string]model.Value, len(attrs))
	for name, v := range attrs {
		lv, err := toLocal(m.idx, v)
		if err != nil {
			return err
		}
		lattrs[name] = lv
	}
	return r.routed(m, true, func(c *client.Client) error { return c.Update(local, lattrs) })
}

// Delete removes the object on its owning member.
func (r *Router) Delete(g model.OID) error {
	m, local, err := r.memberOf(g)
	if err != nil {
		return err
	}
	return r.routed(m, false, func(c *client.Client) error { return c.Delete(local) })
}

// --- Scatter-gather queries --------------------------------------------

// Query parses src and fans it out to every member carrying the FROM
// class, with bounded parallelism, then merges deterministically:
// results concatenate in member-index order (each member's local order
// preserved), ORDER BY re-sorts the merged rows on the member-evaluated
// key, LIMIT truncates after the merge, and aggregates combine
// arithmetically (COUNT/SUM add, MIN/MAX compare, AVG recomputed from
// shipped SUM+COUNT).
//
// If any member fails after retries, Query returns a *PartialError
// carrying both the failures and the merged rows from the members that
// answered — never a silently truncated plain result.
func (r *Router) Query(src string) (*Result, error) {
	if r.closed.Load() {
		return nil, ErrClosed
	}
	q, err := query.Parse(src)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	mScatterQueries.Add(1)
	defer func() { mScatterLatency.Observe(uint64(time.Since(start))) }()
	if len(q.Aggregates) > 0 {
		return r.queryAggregate(q)
	}
	return r.queryRows(q)
}

// memberResult is one member's translated scatter slice.
type memberResult struct {
	m   *member
	res *client.Result
	err error
}

// scatter ships src to every given member with bounded parallelism.
func (r *Router) scatter(members []*member, src string) []memberResult {
	out := make([]memberResult, len(members))
	sem := make(chan struct{}, fanout)
	var wg sync.WaitGroup
	for i, m := range members {
		wg.Add(1)
		go func(i int, m *member) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			var res *client.Result
			err := r.call(m, true, func(c *client.Client) error {
				var err error
				res, err = c.Query(src)
				return err
			})
			out[i] = memberResult{m: m, res: res, err: err}
		}(i, m)
	}
	wg.Wait()
	return out
}

// queryRows handles non-aggregate queries.
func (r *Router) queryRows(q *query.Query) (*Result, error) {
	if q.OrderBy != nil && len(q.Select) == 0 {
		return nil, fmt.Errorf("%w: ORDER BY needs an explicit projection in a sharded query", ErrUnsupported)
	}

	// Rewrite: the merge needs the ORDER BY key per row, so if the sort
	// path is not already projected, ship it as an extra trailing column
	// and strip it after the sort. LIMIT ships too — each member's top-K
	// is a superset of the global top-K's slice from that member.
	shipped := *q
	orderIdx := -1
	stripKey := false
	if q.OrderBy != nil {
		for i, p := range q.Select {
			if p.String() == q.OrderBy.String() {
				orderIdx = i
				break
			}
		}
		if orderIdx < 0 {
			shipped.Select = append(append([]query.Path{}, q.Select...), *q.OrderBy)
			orderIdx = len(shipped.Select) - 1
			stripKey = true
		}
	}

	members, err := r.membersFor(q.From)
	if err != nil {
		return nil, err
	}
	results := r.scatter(members, shipped.String())

	// Translate surviving slices into the global OID space.
	var failed []MemberError
	res := &Result{}
	for i := range results {
		mr := &results[i]
		if mr.err != nil {
			failed = append(failed, MemberError{Member: mr.m.idx, Addr: mr.m.addr, Err: mr.err})
			continue
		}
		if res.Cols == nil {
			res.Cols = mr.res.Cols
		}
		for _, row := range mr.res.Rows {
			g, err := globalOID(mr.m.idx, row.OID)
			if err != nil {
				return nil, err
			}
			vals := make([]model.Value, len(row.Values))
			for j, v := range row.Values {
				if vals[j], err = toGlobal(mr.m.idx, v); err != nil {
					return nil, err
				}
			}
			res.Rows = append(res.Rows, Row{OID: g, Values: vals})
		}
	}

	// Deterministic merge: concatenation above followed member-index
	// order; the stable sort on the shipped key keeps that order for ties.
	var key func(*Row) (model.Value, error)
	if q.OrderBy != nil {
		key = func(r *Row) (model.Value, error) { return r.Values[orderIdx], nil }
	}
	res.Rows, _ = query.OrderLimit(res.Rows, key, q.Desc, q.Limit) // this key cannot fail
	// res.Cols is nil when no member survived: there is nothing to strip,
	// and slicing would panic instead of reaching the PartialError below.
	if stripKey && len(res.Cols) > 0 {
		res.Cols = res.Cols[:len(res.Cols)-1]
		for i := range res.Rows {
			res.Rows[i].Values = res.Rows[i].Values[:len(res.Rows[i].Values)-1]
		}
	}
	if len(failed) > 0 {
		mScatterPartial.Add(1)
		return nil, &PartialError{Result: res, Failed: failed}
	}
	return res, nil
}

// queryAggregate handles aggregate queries: AVG ships as SUM+COUNT (a
// mean of per-member means would be wrong under skew); everything else
// ships verbatim and combines arithmetically.
func (r *Router) queryAggregate(q *query.Query) (*Result, error) {
	shipped := *q
	shipped.Aggregates = nil
	// plan[i] locates the shipped column(s) feeding original aggregate i.
	type aggPlan struct{ a, b int }
	plan := make([]aggPlan, len(q.Aggregates))
	for i, item := range q.Aggregates {
		if item.Func == query.AggAvg {
			plan[i] = aggPlan{a: len(shipped.Aggregates), b: len(shipped.Aggregates) + 1}
			shipped.Aggregates = append(shipped.Aggregates,
				query.AggItem{Func: query.AggSum, Path: item.Path},
				query.AggItem{Func: query.AggCount, Path: item.Path})
		} else {
			plan[i] = aggPlan{a: len(shipped.Aggregates), b: -1}
			shipped.Aggregates = append(shipped.Aggregates, item)
		}
	}

	members, err := r.membersFor(q.From)
	if err != nil {
		return nil, err
	}
	results := r.scatter(members, shipped.String())

	var failed []MemberError
	var parts [][]model.Value
	for i := range results {
		mr := &results[i]
		if mr.err != nil {
			failed = append(failed, MemberError{Member: mr.m.idx, Addr: mr.m.addr, Err: mr.err})
			continue
		}
		if len(mr.res.Rows) != 1 {
			failed = append(failed, MemberError{Member: mr.m.idx, Addr: mr.m.addr,
				Err: fmt.Errorf("aggregate returned %d rows", len(mr.res.Rows))})
			continue
		}
		parts = append(parts, mr.res.Rows[0].Values)
	}

	// One accumulator per aggregate folds the members' answers in member
	// order — the engine's own accumulator, so the combined answer follows
	// its rules (exact integer sums, nulls skipped, AVG of nothing Null).
	res := &Result{Rows: []Row{{}}}
	vals := make([]model.Value, len(q.Aggregates))
	for i, item := range q.Aggregates {
		res.Cols = append(res.Cols, item.String())
		acc := query.NewAccumulator(item.Func)
		for _, p := range parts {
			count := model.Null
			if plan[i].b >= 0 {
				count = p[plan[i].b]
			}
			part, err := query.Partial(item.Func, p[plan[i].a], count)
			if err != nil {
				return nil, err
			}
			acc.Merge(part)
		}
		vals[i] = acc.Result()
	}
	res.Rows[0].Values = vals
	if len(failed) > 0 {
		mScatterPartial.Add(1)
		return nil, &PartialError{Result: res, Failed: failed}
	}
	return res, nil
}
