package pythia

// Workload options: Hadoop-side behavior — see the package doc's
// "Configuring a cluster" index.

// WithReduceSlowstart sets the fraction of maps that must complete before
// reducers launch (Hadoop's default 0.05).
func WithReduceSlowstart(f float64) Option {
	return func(c *config) { c.hadoopCfg.SlowstartFraction = f }
}

// WithParallelCopies bounds each reducer's concurrent fetches (default 5).
func WithParallelCopies(n int) Option { return func(c *config) { c.hadoopCfg.ParallelCopies = n } }
