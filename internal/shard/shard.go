// Package shard turns N kimsrv processes into one logical database —
// the scale-out step past PR 9's single served process, and the
// distribution reading of Kim §5.2: once every member database sits
// under one common data model, *where* an object lives can become an
// implementation detail.
//
// Three pieces:
//
//   - RemoteSource adapts one remote kimsrv into a federation.Source, so
//     a served database joins a federation exactly like an in-process
//     member. It also implements federation.QueryableSource: eligible
//     queries ship to the member as one wire query (predicate pushdown)
//     instead of a per-entity Scan.
//   - Router partitions classes across members. A per-class placement
//     map (the members whose schema carries the class) plus a consistent
//     hash ring decide where each new object lands; the member index is
//     recorded in the object's global OID, so every later read or write
//     routes O(1) to the owner without consulting the ring. Queries fan
//     out scatter-gather with bounded parallelism and merge
//     deterministically; single-object Fetch/Get/Insert/Update/Delete
//     route to the owning member.
//   - An operational rim: per-member health probes over Redialer-backed
//     connections, retry with capped exponential backoff driven by
//     client.Retryable, typed partial-failure results (a scatter with a
//     dead member NEVER silently returns the surviving subset as if it
//     were complete), and shard_* metrics through internal/obs.
//
// What is deliberately not distributed: transactions are single-member
// (the router's writes autocommit on the owner; there is no cross-member
// two-phase commit), and cross-member joins/path traversals are out of
// scope — a reference held by an object on member A to an object on
// member B is refused at write time (ErrCrossMember) rather than
// half-supported at read time.
//
// # Global object identity
//
// Each member allocates OIDs independently, so two members' local OIDs
// collide. The router maps between the two spaces mechanically: a global
// OID carries the owning member's index in the top 8 bits of the 40-bit
// sequence field, leaving 32 bits of per-member sequence space. Member
// 0's global OIDs equal its local OIDs. The class bits are always the
// owner's local class id and are only ever interpreted by the owner.
// Because identity records placement, membership changes never strand an
// object: the ring only assigns NEW objects; the OID remembers.
package shard

import (
	"errors"
	"fmt"
	"strings"

	"oodb/internal/model"
	"oodb/internal/server/proto"
)

// Typed errors of the shard layer.
var (
	// ErrNoMember reports an OID whose member index is outside the
	// router's member list, or a class no member carries.
	ErrNoMember = errors.New("shard: no such member")
	// ErrCrossMember reports a reference from an object on one member to
	// an object on another. Cross-member references are out of scope
	// (see the package comment) and refused at write time.
	ErrCrossMember = errors.New("shard: cross-member reference")
	// ErrOIDSpace reports a member whose local sequence numbers have
	// outgrown the 32-bit per-member slice of the global OID space.
	ErrOIDSpace = errors.New("shard: member OID outside the routable 32-bit space")
	// ErrUnsupported reports a query shape the router cannot scatter
	// (ORDER BY without an explicit projection).
	ErrUnsupported = errors.New("shard: unsupported query shape")
	// ErrClosed reports use of a closed router.
	ErrClosed = errors.New("shard: router closed")
)

// memberBits is the width of the member index inside a global OID's
// sequence field; localSeqBits is what remains for the member's own
// sequence numbers.
const (
	memberBits   = 8
	localSeqBits = 32
	maxLocalSeq  = 1<<localSeqBits - 1
	// MaxMembers is the largest member count the OID scheme can route.
	MaxMembers = 1 << memberBits
)

// globalOID tags a member's local OID with its member index. It fails
// with ErrOIDSpace if the local sequence has outgrown the per-member
// slice (after ~4 billion objects of one class on one member).
func globalOID(member int, local model.OID) (model.OID, error) {
	if local.IsNil() {
		return model.NilOID, nil
	}
	seq := local.Seq()
	if seq > maxLocalSeq {
		return model.NilOID, fmt.Errorf("%w: %s on member %d", ErrOIDSpace, local, member)
	}
	return model.MakeOID(local.Class(), uint64(member)<<localSeqBits|seq), nil
}

// splitOID recovers the member index and local OID from a global OID.
func splitOID(g model.OID) (member int, local model.OID) {
	if g.IsNil() {
		return 0, model.NilOID
	}
	seq := g.Seq()
	return int(seq >> localSeqBits), model.MakeOID(g.Class(), seq&maxLocalSeq)
}

// toGlobal rewrites every reference inside v (recursively through sets)
// from member m's local OID space into the global space.
func toGlobal(member int, v model.Value) (model.Value, error) {
	switch v.Kind() {
	case model.KindRef:
		local, _ := v.AsRef()
		g, err := globalOID(member, local)
		if err != nil {
			return model.Null, err
		}
		return model.Ref(g), nil
	case model.KindSet:
		members, _ := v.AsSet()
		out := make([]model.Value, 0, len(members))
		for _, m := range members {
			gv, err := toGlobal(member, m)
			if err != nil {
				return model.Null, err
			}
			out = append(out, gv)
		}
		return model.Set(out...), nil
	default:
		return v, nil
	}
}

// toLocal rewrites every reference inside v from the global space into
// member m's local space. A reference owned by a different member is
// refused with ErrCrossMember.
func toLocal(member int, v model.Value) (model.Value, error) {
	switch v.Kind() {
	case model.KindRef:
		g, _ := v.AsRef()
		owner, local := splitOID(g)
		if owner != member {
			return model.Null, fmt.Errorf("%w: %s is on member %d, not %d", ErrCrossMember, g, owner, member)
		}
		return model.Ref(local), nil
	case model.KindSet:
		members, _ := v.AsSet()
		out := make([]model.Value, 0, len(members))
		for _, m := range members {
			lv, err := toLocal(member, m)
			if err != nil {
				return model.Null, err
			}
			out = append(out, lv)
		}
		return model.Set(out...), nil
	default:
		return v, nil
	}
}

// MemberError is one member's failure inside a scatter.
type MemberError struct {
	Member int
	Addr   string
	Err    error
}

func (e MemberError) Error() string {
	return fmt.Sprintf("member %d (%s): %v", e.Member, e.Addr, e.Err)
}

// Unwrap exposes the underlying error to errors.Is/As.
func (e MemberError) Unwrap() error { return e.Err }

// PartialError reports a scatter in which one or more members failed.
// Result holds the merged rows from the members that answered — callers
// that can tolerate partial answers may use it, but only by explicitly
// unwrapping this error; the router never returns a subset as a plain
// result.
type PartialError struct {
	Result *Result
	Failed []MemberError
}

func (e *PartialError) Error() string {
	parts := make([]string, len(e.Failed))
	for i, f := range e.Failed {
		parts[i] = f.Error()
	}
	rows := 0
	if e.Result != nil {
		rows = len(e.Result.Rows)
	}
	return fmt.Sprintf("shard: partial result (%d rows from surviving members): %s",
		rows, strings.Join(parts, "; "))
}

// Unwrap exposes the member failures to errors.Is/As.
func (e *PartialError) Unwrap() []error {
	out := make([]error, len(e.Failed))
	for i := range e.Failed {
		out[i] = e.Failed[i]
	}
	return out
}

// Result and Row are the one answer type of every door; here Row OIDs and
// reference values are in the global OID space.
type (
	Result = proto.Result
	Row    = proto.ResultRow
)
