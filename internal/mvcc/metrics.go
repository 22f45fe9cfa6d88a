package mvcc

import "oodb/internal/obs"

// MVCC overlay metrics (obs registry). The chain-length histogram is the
// health signal: a growing tail means a long-lived snapshot is pinning
// versions that commits cannot prune until it ends.
var (
	mVersionWrites  = obs.RegisterCounter("mvcc_version_writes_total")
	mVersionsPruned = obs.RegisterCounter("mvcc_version_pruned_total")
	mChainsLive     = obs.RegisterGauge("mvcc_chains_live_now")
	mChainLength    = obs.RegisterHistogram("mvcc_chain_length_versions")
)
