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
