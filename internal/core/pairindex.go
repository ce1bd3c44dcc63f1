package core

// pairIndex holds the live pair aggregates, dense by key, so a booking's pair
// lookup is two slice indexes and no hash. rows[src].dst[dst] is the
// aggregate keyed (src, dst): host NodeIDs, or rack numbers under
// ScopeRackPair, both below the fabric's node count. A source's row is
// allocated with its first aggregate and dropped with its last, so the index
// costs 8 B × width per source with live demand. Walking the rows, then each
// row's slots, visits the aggregates in ascending pair-key order
// (sortedAggregates) without a sort.
type pairIndex struct {
	rows  []pairRow // by source; nil until the first aggregate
	width int       // row length: the fabric's node count
	n     int       // live aggregates
}

// pairRow is one source's aggregates by destination, and how many there are.
type pairRow struct {
	dst []*aggregate
	n   int
}

// get returns the aggregate keyed k, or nil.
func (x *pairIndex) get(k pairKey) *aggregate {
	if uint(k.src) < uint(len(x.rows)) {
		if row := x.rows[k.src].dst; uint(k.dst) < uint(len(row)) {
			return row[k.dst]
		}
	}
	return nil
}

// put files a under its key, whose slot must be empty.
func (x *pairIndex) put(a *aggregate) {
	if x.rows == nil {
		x.rows = make([]pairRow, x.width)
	}
	row := &x.rows[a.key.src]
	if row.dst == nil {
		row.dst = make([]*aggregate, x.width)
	}
	row.dst[a.key.dst] = a
	row.n++
	x.n++
}

// del removes a, which must be filed under its key, and drops its source's
// row once that row is empty.
func (x *pairIndex) del(a *aggregate) {
	row := &x.rows[a.key.src]
	row.dst[a.key.dst] = nil
	if row.n--; row.n == 0 {
		row.dst = nil
	}
	x.n--
}
