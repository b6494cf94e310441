package shard

// Place distributes the time-zero population across the fleet under the
// configured policy and returns the per-shard populations: the walk's
// time-zero placement. Placement is greedy one user at a time through the
// live picker, which gives every policy the prefix property: the
// placement for N users is a prefix of the placement for N+1, so fleet
// series over growing populations share common random numbers per shard
// and degrade monotonically.
func Place(cfg Config) ([]int, error) {
	walk, err := buildPlans(cfg)
	if err != nil {
		return nil, err
	}
	return walk.counts, nil
}
