package resolve

// UseFullRecompute makes a fresh framework session select through the
// full per-round recompute oracle instead of its component shards.
func UseFullRecompute(s *Session) { s.useFullRecompute() }

// UseOneShard rebuilds a fresh framework session's shards as one shard
// over every component: the monolithic incremental scan.
func UseOneShard(s *Session) { s.useOneShard() }

// CheckSelectionPaths lets the seed-workload suites run the synthetic
// suites' oracle comparison.
var CheckSelectionPaths = checkSelectionPaths

// UseFullRetrain makes a Learner built from cfg rebuild its encoder and
// re-encode the whole repository on every retrain: the warm path's
// equivalence oracle.
func UseFullRetrain(cfg *LearnerConfig) { cfg.fullRetrain = true }
