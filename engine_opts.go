package pythia

import "pythia/internal/core"

// Engine options: scheduler choice and run control — see the package doc's
// "Configuring a cluster" index.

// WithScheduler selects the flow allocator (default ECMP).
func WithScheduler(k SchedulerKind) Option { return func(c *config) { c.scheduler = k } }

// WithSeed fixes all randomness (ECMP hash salt, workload jitter).
func WithSeed(seed uint64) Option { return func(c *config) { c.seed = seed } }

// WithKShortestPaths sets the run's per-pair path diversity (default 4) for
// every scheduler: the first K equal-cost paths of a pair are Pythia's and
// Hedera's candidate set and ECMP's hash set. Compare(...,
// WithKShortestPaths(1)) therefore single-paths both sides.
func WithKShortestPaths(k int) Option { return func(c *config) { c.pythiaCfg.K = k } }

// WithRackAggregation switches Pythia to rack-pair (prefix) rules: one
// steering rule per rack pair instead of per server pair, conserving switch
// TCAM as §IV proposes for large-scale deployments.
func WithRackAggregation() Option {
	return func(c *config) { c.pythiaCfg.Scope = core.ScopeRackPair }
}

// WithCriticality enables the §VI flow-priority criterion: aggregates
// feeding the reducer with the largest outstanding shuffle backlog are
// placed first.
func WithCriticality() Option {
	return func(c *config) { c.pythiaCfg.UseCriticality = true }
}

// WithExplicitControlPlane routes prediction notifications and OpenFlow
// FLOW_MOD messages over a modeled out-of-band management network
// (per-sender FIFO serialization and transmission time) instead of fixed
// latencies — the complete §III architecture.
func WithExplicitControlPlane() Option { return func(c *config) { c.explicitCP = true } }

// WithDeadline bounds a TryRunJobs run to the given simulated seconds.
// Without it, a run that cannot make progress — e.g. a partitioned network
// with a reducer forever retrying an unroutable fetch — would loop in
// virtual time; with it, TryRunJobs stops at the deadline and reports the
// incomplete jobs as an ErrUnfinished error.
func WithDeadline(sec float64) Option { return func(c *config) { c.deadline = sec } }
