package cache

// AvgChainLength returns the mean hash-chain length over non-empty buckets;
// the paper reports this is approximately one in practice.
func (c *Cache) AvgChainLength() float64 {
	used := 0
	for b := range c.buckets {
		if c.buckets[b] != nil {
			used++
		}
	}
	if used == 0 {
		return 0
	}
	return float64(c.entries) / float64(used)
}
