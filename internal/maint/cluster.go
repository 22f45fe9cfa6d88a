package maint

import (
	"sort"

	"oodb/internal/composite"
	"oodb/internal/model"
	"oodb/internal/storage"
)

// Clustering policy: what order the compactor lays a segment's live
// records in when it rewrites it. Kim §4.2 names clustering as a core
// OODB performance lever; Darmont & Gruenwald's survey supplies the two
// families implemented here — placement by composite (aggregation)
// hierarchy and placement by access frequency. The policy decides layout
// only: every policy is logically invisible (same OIDs, same bytes, same
// index answers — pinned by TestClusteredRewriteLogicallyInvisible), so
// choosing one is purely a performance decision.

// ClusterPolicy selects a compaction placement policy.
type ClusterPolicy int

const (
	// ClusterNone keeps physical scan order — byte-identical to the
	// pre-clustering compactor. The default.
	ClusterNone ClusterPolicy = iota
	// ClusterComposite lays composite-object children adjacent to their
	// parents: a DFS over the class's part-of graph (internal/composite
	// declarations), roots in scan order. Objects navigationally close
	// become physically close — the OO1 traversal case.
	ClusterComposite
	// ClusterHot places frequently fetched objects first, ordered by the
	// per-object access counters sampled in Store.Get, so the working set
	// condenses onto the segment's leading pages. Counters are consumed
	// (reset) by each heat-ordered compaction, so placement tracks recent
	// heat rather than all history.
	ClusterHot
)

// String names the policy for reports and metrics.
func (p ClusterPolicy) String() string {
	switch p {
	case ClusterComposite:
		return "composite"
	case ClusterHot:
		return "hot"
	default:
		return "none"
	}
}

// policy is the placement policy the manager is configured with.
func (m *Manager) policy() ClusterPolicy { return m.opts.Load().Clustering }

// placement builds the storage.Placement for a policy, or nil for
// ClusterNone. The returned closure runs inside the compaction's DDL
// critical section — writers of the class are excluded, and it only reads
// (lock-free FetchObject / atomic counter snapshots), so it cannot
// deadlock against the locks the compaction holds.
func (m *Manager) placement(class model.ClassID, policy ClusterPolicy) (storage.Placement, error) {
	switch policy {
	case ClusterComposite:
		// A fresh composite manager per compaction: declarations are
		// persisted objects, so reloading sees every DeclareComposite made
		// since the maint manager was built. Constructed here — before the
		// DDL critical section — because first use may define the
		// declaration class.
		cm, err := composite.New(m.db)
		if err != nil {
			return nil, err
		}
		return m.compositePlacement(cm), nil
	case ClusterHot:
		return m.heatPlacement(), nil
	default:
		return nil, nil
	}
}

// compositePlacement orders a segment by DFS over the part-of graph
// restricted to the compacted class: each root (a live object no other
// live object of the class references through a composite attribute) is
// laid down followed immediately by its within-class components, roots in
// scan order. A second sweep starts a DFS from every remaining unvisited
// object in scan order, so purely cyclic part-of subgraphs (no root) are
// still clustered rather than falling through to the tail-append. Links
// that leave the class influence nothing — heap segments are per-class,
// so only within-class adjacency is expressible.
func (m *Manager) compositePlacement(cm *composite.Manager) storage.Placement {
	return func(scanOrder []model.OID) []model.OID {
		inClass := make(map[model.OID]bool, len(scanOrder))
		for _, oid := range scanOrder {
			inClass[oid] = true
		}
		children := func(oid model.OID) []model.OID {
			refs, err := cm.DirectComponents(oid)
			if err != nil {
				return nil
			}
			return refs
		}
		isChild := make(map[model.OID]bool)
		for _, oid := range scanOrder {
			for _, r := range children(oid) {
				if inClass[r] && r != oid {
					isChild[r] = true
				}
			}
		}
		out := make([]model.OID, 0, len(scanOrder))
		seen := make(map[model.OID]bool, len(scanOrder))
		var dfs func(oid model.OID)
		dfs = func(oid model.OID) {
			if seen[oid] || !inClass[oid] {
				return
			}
			seen[oid] = true
			out = append(out, oid)
			for _, r := range children(oid) {
				dfs(r)
			}
		}
		for _, oid := range scanOrder {
			if !isChild[oid] {
				dfs(oid)
			}
		}
		for _, oid := range scanOrder {
			dfs(oid)
		}
		return out
	}
}

// heatPlacement orders a segment by descending fetch count from the
// store's access tracker; ties (including never-fetched objects, count 0)
// keep scan order, so the result is deterministic for a given counter
// state and the cold tail stays in today's layout.
func (m *Manager) heatPlacement() storage.Placement {
	return func(scanOrder []model.OID) []model.OID {
		counts := m.db.Store.AccessCounts()
		out := append([]model.OID(nil), scanOrder...)
		sort.SliceStable(out, func(i, j int) bool {
			return counts[out[i]] > counts[out[j]]
		})
		return out
	}
}
