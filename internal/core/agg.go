package core

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"sync/atomic"

	"astream/internal/bitset"
	"astream/internal/changelog"
	"astream/internal/event"
	"astream/internal/spe"
	"astream/internal/sqlstream"
	"astream/internal/window"
)

// aggVal is the shared partial aggregate for one (query-set group, key): all
// the per-field statistics any query's aggregate can be finalized from, so
// every query sharing the group shares a single update per tuple
// (paper §3.1.5: tuples are folded into intermediate results and discarded).
type aggVal struct {
	Count       int64
	Sum         [event.NumFields]int64
	Min         [event.NumFields]int64
	Max         [event.NumFields]int64
	IngestNanos int64 // freshest contributor
}

func newAggVal() *aggVal {
	//lint:ignore hotalloc cold: runs once per first-seen (group, key) pair; steady state reuses pooled values
	v := &aggVal{}
	v.reset()
	return v
}

func (v *aggVal) reset() {
	v.Count = 0
	v.IngestNanos = 0
	for i := range v.Min {
		v.Sum[i] = 0
		v.Min[i] = 1<<63 - 1
		v.Max[i] = -1 << 63
	}
}

func (v *aggVal) fold(t *event.Tuple) {
	v.Count++
	for i, f := range t.Fields {
		v.Sum[i] += f
		if f < v.Min[i] {
			v.Min[i] = f
		}
		if f > v.Max[i] {
			v.Max[i] = f
		}
	}
	if t.IngestNanos > v.IngestNanos {
		v.IngestNanos = t.IngestNanos
	}
}

func (v *aggVal) merge(o *aggVal) {
	v.Count += o.Count
	for i := range v.Sum {
		v.Sum[i] += o.Sum[i]
		if o.Min[i] < v.Min[i] {
			v.Min[i] = o.Min[i]
		}
		if o.Max[i] > v.Max[i] {
			v.Max[i] = o.Max[i]
		}
	}
	if o.IngestNanos > v.IngestNanos {
		v.IngestNanos = o.IngestNanos
	}
}

// finalizeCountSum computes the query-visible value of the count/sum family
// from a (count, sum) pair. Both slice-partial finalize and session harvest
// route through it so truncation rules (integer Avg, empty-count zero)
// cannot diverge when aggregate functions are added.
func finalizeCountSum(fn sqlstream.AggFunc, count, sum int64) int64 {
	switch fn {
	case sqlstream.AggCount:
		return count
	case sqlstream.AggAvg:
		if count == 0 {
			return 0
		}
		return sum / count
	default:
		return sum
	}
}

// finalize computes the query-visible value.
func (v *aggVal) finalize(fn sqlstream.AggFunc, field int) int64 {
	switch fn {
	case sqlstream.AggCount:
		return finalizeCountSum(fn, v.Count, 0)
	case sqlstream.AggSum, sqlstream.AggAvg:
		return finalizeCountSum(fn, v.Count, v.Sum[field])
	case sqlstream.AggMin:
		return v.Min[field]
	case sqlstream.AggMax:
		return v.Max[field]
	default:
		return 0
	}
}

// aggGroup is a query-set group inside one slice: per-key shared partials.
// keys records byKey's keys in arrival order so walking a group never
// iterates the map (merge is commutative, so arrival order is fine there;
// emission order comes from the accumulator's sorted keys).
type aggGroup struct {
	qs    bitset.Bits
	byKey map[int64]*aggVal
	keys  []int64
}

// aggQuery is one active query served by the aggregation operator.
type aggQuery struct {
	q    *Query
	slot int
	port int // which input port feeds this query's aggregation
	// sessions is per-key session state for session-window queries;
	// sessKeys mirrors its keys in ascending order (maintained on
	// creation/expiry) so harvest iterates deterministically without a
	// per-watermark sort.
	sessions map[int64]*window.SessionState
	sessKeys []int64
	// since/until/endEpoch implement event-time query lifetime, exactly as
	// in the shared join: windows ending in (since, until] fire, masked by
	// changelog-sets capped at endEpoch.
	since    event.Time
	until    event.Time
	endEpoch uint64
}

func (a *aggQuery) spec() window.Spec {
	if a.q.Kind == KindComplex {
		return a.q.AggWindow
	}
	return a.q.Window
}

// insertSortedInt64 inserts v into ascending s, keeping it sorted (no-op if
// already present).
func insertSortedInt64(s []int64, v int64) []int64 {
	//lint:ignore hotalloc sort.Search does not retain its predicate; the closure is stack-allocated
	i := sort.Search(len(s), func(i int) bool { return s[i] >= v })
	if i < len(s) && s[i] == v {
		return s
	}
	//lint:ignore hotalloc session path: sorted-times slice growth is amortized per new session element
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

// SharedAggregation is the shared windowed aggregation operator (§3.1.5).
// Port 0 carries raw stream-0 tuples (arity-1 aggregations and selections);
// port k ≥ 1 carries the output of join stage k-1 (complex queries of arity
// k+1). Tuples fold into query-set-grouped partial aggregates per slice and
// are then discarded; window results combine slice partials.
type SharedAggregation struct {
	spe.BaseLogic
	ports int
	sl    *slicer
	table *changelog.Table
	//lint:ephemeral derived index over the serialized activeOrdered list
	active map[int]*aggQuery // by query ID
	//lint:ephemeral derived index over the serialized selOrdered list
	selection map[int]*aggQuery // selection queries (terminal at port 0)
	// activeOrdered/selOrdered mirror the maps sorted by (slot, query ID),
	// maintained incrementally on changelog and purge: the per-tuple and
	// watermark paths iterate them so delivery order is deterministic
	// (replay determinism, §3.3) without per-emission sorts or map ranges.
	activeOrdered []*aggQuery
	selOrdered    []*aggQuery
	// maskVersions holds the per-port/selection/session slot masks,
	// versioned by event-time. Slot reuse makes a bare slot ambiguous (the
	// same bit can mean "aggregation input" in one epoch and "join input
	// of a complex query" in the next); resolving masks against the
	// tuple's event-time removes the ambiguity, exactly as the shared
	// selection resolves its predicate table.
	maskVersions []maskVersion
	//lint:ephemeral constructor wiring (result router)
	router *Router
	//lint:ephemeral constructor wiring (metrics sink)
	metrics *OpMetrics
	//lint:ephemeral constructor wiring (allowed-lateness config)
	lateness    event.Time
	lastWM      event.Time
	evictedThru event.Time

	// Incremental-snapshot bookkeeping (OnBarrierDelta): per-slice fold
	// counts captured at the last snapshot, the changelog epoch that
	// snapshot held, and the current delta-chain length. All of it
	// describes snapshots already taken, never live state — a recovered
	// instance is freshly constructed, so snapFolds starts nil and the
	// first delta-mode snapshot after recovery is always full.
	//lint:ephemeral snapshot bookkeeping; nil forces the next delta-mode snapshot to be full
	snapFolds map[uint64]uint64
	//lint:ephemeral snapshot bookkeeping paired with snapFolds
	snapTableSeq uint64
	//lint:ephemeral snapshot bookkeeping paired with snapFolds
	sinceFull int
	//lint:ephemeral snapshot encoding scratch
	tblScratch []byte //lint:pooled scratch table-delta encode buffer recycled across barriers

	// Steady-state scratch (owned by the instance goroutine): query-set
	// intersection temporaries, the trigger and cap grouping, per-trigger
	// accumulators, and the aggVal freelist.
	//lint:ephemeral per-tuple scratch
	qsTmp bitset.Bits //lint:pooled scratch per-tuple query-set intersection scratch
	//lint:ephemeral per-trigger scratch
	effTmp bitset.Bits //lint:pooled scratch per-trigger effective-query scratch
	//lint:ephemeral per-trigger scratch
	trigTmp []*aggTrigger //lint:pooled scratch per-trigger grouping scratch
	//lint:ephemeral per-trigger scratch
	capTmp []*aggCapGroup //lint:pooled scratch per-trigger cap-grouping scratch
	//lint:ephemeral per-trigger scratch
	accums []*slotAccum //lint:pooled scratch per-trigger accumulator scratch
	//lint:ephemeral freelist, refills through steady-state recycling
	valPool []*aggVal //lint:pooled freelist recycled aggVal backings
	//lint:ephemeral per-trigger scratch
	specsTmp []window.Spec //lint:pooled scratch per-trigger window-spec scratch

	// Shared window-fire engine (DESIGN.md §15): the merge tree memoizes
	// slice partials, classes dedup combine work across queries, and
	// fingerprints fan one finalized accumulator out to every query with
	// identical class membership.
	//lint:ephemeral derived merge tree over the live slice ring, rebuilt by rebuildMergeTree on Restore
	tree *mergeTree
	//lint:ephemeral constructor wiring (fault injection forces the scan arm)
	treeOff bool
	//lint:ephemeral per-trigger scratch
	nodeTmp []int32 //lint:pooled scratch per-trigger merge-tree node scratch
	//lint:ephemeral per-trigger scratch
	classTmp []*fireClass //lint:pooled scratch per-trigger combine-class scratch
	//lint:ephemeral per-trigger scratch
	fpTmp []*fireFP //lint:pooled scratch per-trigger fingerprint scratch
	//lint:ephemeral per-trigger scratch
	fpIdx []int32 //lint:pooled scratch per-trigger fingerprint index scratch
	//lint:ephemeral per-trigger scratch
	qmaskTmp bitset.Bits //lint:pooled scratch per-trigger query-mask scratch
	//lint:ephemeral per-trigger scratch
	relqTmp bitset.Bits //lint:pooled scratch per-trigger relevant-query scratch
	// shareMinQueries/shareMinRun gate the shared arm per trigger: below
	// both bounds the direct scan fires instead — a one-query trigger over
	// a short slice run has nothing to share, and the class/fingerprint
	// bookkeeping is pure overhead (randomized ad-hoc windows rarely
	// coincide, so such triggers dominate churn-heavy workloads).
	//lint:ephemeral constructor wiring (fire-dispatch threshold)
	shareMinQueries int
	//lint:ephemeral constructor wiring (fire-dispatch threshold)
	shareMinRun int
}

// Shared-arm dispatch defaults: triggers with at least this many queries
// (combine dedup pays off) or covering at least this many slices (the
// O(log n) tree cover pays off) fire through the shared engine.
const (
	sharedFireMinQueries = 4
	sharedFireMinRun     = 16
)

// aggTrigger collects the queries fired by one window extent.
type aggTrigger struct {
	ext     window.Extent
	queries []*aggQuery
}

// aggCapGroup batches a trigger's queries (by index) sharing one
// changelog-set cap.
type aggCapGroup struct {
	cap  uint64
	idxs []int
}

// slotAccum accumulates one query's window result across slices. keys
// collects byKey's keys in arrival order; emission sorts once per window
// (the old per-insert binary shift was O(k²) across a window's keys).
type slotAccum struct {
	aq    *aggQuery
	byKey map[int64]*aggVal
	keys  []int64
}

// fireClass is one deduplicated combine accumulator within a fire: all
// queries of one cap group whose effective membership (eff = node group
// query-set ∩ Rel(epoch, cap) ∩ the cap group's slot mask) coincides share
// the merge work that fireWindowScan would redo per query.
type fireClass struct {
	eff   bitset.Bits
	byKey map[int64]*aggVal
	keys  []int64
}

// fireFP fans class combinations out to queries: queries whose class
// membership fingerprint — the (extent, cap, membership) key of DESIGN.md
// §15 with extent and cap fixed by position — matches share one combined
// accumulator. A single-class fingerprint aliases the class (cls != nil)
// instead of copying it.
type fireFP struct {
	mask  uint64 // class bitmask, local to one cap group's class range
	base  int    // first class index of that range
	cls   *fireClass
	byKey map[int64]*aggVal
	keys  []int64
}

// maskVersion is the slot-mask table in effect from a given event-time.
type maskVersion struct {
	from      event.Time
	portMasks []bitset.Bits
	selMask   bitset.Bits
	sessMask  bitset.Bits
}

// NewSharedAggregation constructs the logic for one instance.
func NewSharedAggregation(ports int, lateness event.Time, router *Router, m *OpMetrics) *SharedAggregation {
	a := &SharedAggregation{
		ports:        ports,
		sl:           newSlicer(),
		table:        changelog.NewTable(),
		active:       make(map[int]*aggQuery),
		selection:    make(map[int]*aggQuery),
		maskVersions: []maskVersion{{from: event.MinTime, portMasks: make([]bitset.Bits, ports)}},
		router:       router,
		metrics:      m,
		lateness:     lateness,
		lastWM:       event.MinTime,
		evictedThru:  event.MinTime,

		shareMinQueries: sharedFireMinQueries,
		shareMinRun:     sharedFireMinRun,
	}
	a.rebuildMergeTree()
	return a
}

// rebuildMergeTree (re)derives the shared window-fire tree, at construction
// and after Restore. The tree itself carries no state worth keeping — it
// re-anchors from the restored slice ring on the next sync.
func (a *SharedAggregation) rebuildMergeTree() {
	if a.treeOff {
		a.tree = nil
		return
	}
	a.tree = &mergeTree{owner: a}
}

// disableMergeTree forces the per-slice re-merge fire path: the ablation
// baseline and the merge-tree agreement tests compare the shared fire
// engine against it.
func (a *SharedAggregation) disableMergeTree() {
	a.treeOff = true
	a.tree = nil
}

// insertBySlot adds aq to the (slot, ID)-ordered list by binary insert
// (changelog path — cold).
func insertBySlot(list []*aggQuery, aq *aggQuery) []*aggQuery {
	i := sort.Search(len(list), func(i int) bool {
		o := list[i]
		if o.slot != aq.slot {
			return o.slot > aq.slot
		}
		return o.q.ID > aq.q.ID
	})
	list = append(list, nil)
	copy(list[i+1:], list[i:])
	list[i] = aq
	return list
}

// filterOrdered drops entries matching gone, in place.
func filterOrdered(list []*aggQuery, gone func(*aggQuery) bool) []*aggQuery {
	kept := list[:0]
	for _, aq := range list {
		if !gone(aq) {
			kept = append(kept, aq)
		}
	}
	for i := len(kept); i < len(list); i++ {
		list[i] = nil
	}
	return kept
}

// masksAt returns the mask table in effect at event-time t.
func (a *SharedAggregation) masksAt(t event.Time) *maskVersion {
	//lint:ignore hotalloc sort.Search does not retain its predicate; the closure is stack-allocated
	i := sort.Search(len(a.maskVersions), func(i int) bool { return a.maskVersions[i].from > t }) - 1
	if i < 0 {
		i = 0
	}
	return &a.maskVersions[i]
}

// aggPortOf returns the input port whose tuples feed q's aggregation, or -1
// when q is not an aggregation consumer.
func aggPortOf(q *Query) int {
	switch q.Kind {
	case KindAggregation:
		return 0
	case KindComplex:
		return q.Arity - 1
	default:
		return -1
	}
}

// OnChangelog updates active queries, port masks, epochs, and the table.
func (a *SharedAggregation) OnChangelog(payload any, at event.Time, _ *spe.Emitter) {
	msg := payload.(*ChangelogMsg)
	for _, d := range msg.CL.Deleted {
		if aq, ok := a.active[d.Query]; ok {
			aq.until = at
			aq.endEpoch = msg.CL.Seq - 1
		}
		if sq, ok := a.selection[d.Query]; ok {
			sq.until = at
			sq.endEpoch = msg.CL.Seq - 1
		}
	}
	for _, c := range msg.CL.Created {
		q := msg.Defs[c.Query]
		if q == nil {
			continue
		}
		switch {
		case q.Kind == KindSelection:
			sq := &aggQuery{q: q, slot: c.Slot, port: 0, since: at, until: event.MaxTime, endEpoch: ^uint64(0)}
			a.selection[c.Query] = sq
			a.selOrdered = insertBySlot(a.selOrdered, sq)
		case aggPortOf(q) >= 0 && aggPortOf(q) < a.ports:
			aq := &aggQuery{q: q, slot: c.Slot, port: aggPortOf(q), since: at, until: event.MaxTime, endEpoch: ^uint64(0)}
			if aq.spec().Kind == window.Session {
				aq.sessions = make(map[int64]*window.SessionState)
			}
			a.active[c.Query] = aq
			a.activeOrdered = insertBySlot(a.activeOrdered, aq)
		}
	}
	// Append a new mask version effective from this changelog's time,
	// built from the queries running after it (pending-deleted queries
	// keep their bits in OLDER versions, where in-flight pre-deletion
	// tuples resolve). Epoch specs likewise come from running queries.
	// Specs are stored by the slicer's epoch history, so they must be a
	// fresh slice, not scratch.
	mv := maskVersion{from: at, portMasks: make([]bitset.Bits, a.ports)}
	specs := make([]window.Spec, 0, len(a.activeOrdered))
	for _, aq := range a.activeOrdered {
		if aq.until == event.MaxTime {
			mv.portMasks[aq.port].Set(aq.slot)
			if aq.sessions != nil {
				mv.sessMask.Set(aq.slot)
			}
		}
		if sp := aq.spec(); sp.IsTimeBased() && aq.until == event.MaxTime {
			specs = append(specs, sp)
		}
	}
	for _, sq := range a.selOrdered {
		if sq.until == event.MaxTime {
			mv.selMask.Set(sq.slot)
		}
	}
	a.maskVersions = append(a.maskVersions, mv)
	if err := a.sl.addEpoch(at, msg.CL.Seq, specs); err != nil {
		panic(fmt.Sprintf("core: agg epoch: %v", err))
	}
	if err := a.table.Add(msg.CL); err != nil {
		panic(fmt.Sprintf("core: agg table: %v", err))
	}
}

// getVal pops a pooled partial (reset) or allocates one.
func (a *SharedAggregation) getVal() *aggVal {
	if n := len(a.valPool); n > 0 {
		v := a.valPool[n-1]
		a.valPool = a.valPool[:n-1]
		v.reset()
		return v
	}
	return newAggVal()
}

func (a *SharedAggregation) putVal(v *aggVal) {
	//lint:ignore hotalloc amortized: freelist grows to the steady-state partial count once
	a.valPool = append(a.valPool, v)
}

// OnTuple folds the tuple into slice partials (and serves selection queries
// and session windows directly). Steady state allocates nothing: the masked
// query-set lands in a scratch bitset, group lookup is key-scratch based, and
// per-key partials come from the freelist.
//
//lint:hotpath
func (a *SharedAggregation) OnTuple(port int, t event.Tuple, _ *spe.Emitter) {
	mv := a.masksAt(t.Time)
	// Selection queries: terminal, stateless, port 0 only.
	if port == 0 && t.QuerySet.Intersects(mv.selMask) {
		for _, sq := range a.selOrdered {
			if t.QuerySet.Test(sq.slot) && t.Time >= sq.since && t.Time < sq.until {
				a.router.Deliver(Result{
					QueryID:     sq.q.ID,
					Kind:        KindSelection,
					Tuple:       t,
					EventTime:   t.Time,
					IngestNanos: t.IngestNanos,
				})
			}
		}
	}
	if port >= len(mv.portMasks) {
		return
	}
	t.QuerySet.AndInto(mv.portMasks[port], &a.qsTmp)
	if a.qsTmp.IsEmpty() {
		return
	}
	if t.Time < a.evictedThru {
		atomic.AddUint64(&a.metrics.Late, 1)
		return
	}
	// Session-window queries keep per-key data-driven state.
	if a.qsTmp.Intersects(mv.sessMask) {
		for _, aq := range a.activeOrdered {
			if aq.sessions == nil || !a.qsTmp.Test(aq.slot) || t.Time < aq.since || t.Time >= aq.until {
				continue
			}
			ss := aq.sessions[t.Key]
			if ss == nil {
				ss = window.NewSessionState(aq.spec().Gap)
				aq.sessions[t.Key] = ss
				aq.sessKeys = insertSortedInt64(aq.sessKeys, t.Key)
			}
			ss.Add(t.Time, a.valueOf(aq, &t))
		}
		a.qsTmp.AndNotInPlace(mv.sessMask)
		if a.qsTmp.IsEmpty() {
			return
		}
	}
	sl := a.sl.sliceFor(t.Time)
	if sl.aggs == nil {
		sl.aggs = newQSIndex[aggGroup]()
	}
	g := sl.aggs.get(a.qsTmp)
	if g == nil {
		//lint:ignore hotalloc cold: runs once per first-seen query-set group per slice
		g = &aggGroup{qs: a.qsTmp.Clone(), byKey: make(map[int64]*aggVal)}
		sl.aggs.put(g.qs, g)
	}
	v := g.byKey[t.Key]
	if v == nil {
		v = a.getVal()
		g.byKey[t.Key] = v
		//lint:ignore hotalloc cold: runs once per first-seen key within a group
		g.keys = append(g.keys, t.Key)
	}
	v.fold(&t)
	sl.folds++
}

func (a *SharedAggregation) valueOf(aq *aggQuery, t *event.Tuple) int64 {
	if aq.q.Agg == sqlstream.AggCount || aq.q.AggField < 0 {
		return 1
	}
	return t.Fields[aq.q.AggField]
}

// triggerFor returns the trigger for ext, keeping trigTmp sorted by
// (End, Start) via binary insert instead of a per-watermark sort.
func (a *SharedAggregation) triggerFor(ext window.Extent) *aggTrigger {
	//lint:ignore hotalloc sort.Search does not retain its predicate; the closure is stack-allocated
	i := sort.Search(len(a.trigTmp), func(i int) bool {
		t := a.trigTmp[i]
		if t.ext.End != ext.End {
			return t.ext.End > ext.End
		}
		return t.ext.Start > ext.Start
	})
	if i < len(a.trigTmp) && a.trigTmp[i].ext == ext {
		return a.trigTmp[i]
	}
	var tr *aggTrigger
	if n := len(a.trigTmp); n < cap(a.trigTmp) {
		// Reuse the spare trigger parked past the length by an earlier
		// truncation, before the shift below overwrites its slot.
		a.trigTmp = a.trigTmp[:n+1]
		tr = a.trigTmp[n]
	} else {
		//lint:ignore hotalloc amortized: trigger list grows to the per-watermark extent count once
		a.trigTmp = append(a.trigTmp, nil)
	}
	if tr == nil {
		//lint:ignore hotalloc cold: trigger objects are recycled across watermarks once allocated
		tr = &aggTrigger{}
	}
	copy(a.trigTmp[i+1:], a.trigTmp[i:])
	tr.ext = ext
	tr.queries = tr.queries[:0]
	a.trigTmp[i] = tr
	return tr
}

// OnWatermark triggers windows ending in (lastWM, wm], harvests closed
// sessions, and evicts expired slices.
func (a *SharedAggregation) OnWatermark(wm event.Time, _ *spe.Emitter) {
	if wm <= a.lastWM {
		return
	}
	// Clamp the trigger range to where data exists (see SharedJoin).
	lo := a.lastWM
	if lo == event.MinTime {
		if f, ok := a.sl.firstSliceStart(); ok {
			lo = f
		} else {
			lo = wm
		}
	}

	// Group triggered time-window queries by extent; activeOrdered keeps
	// the per-trigger query lists in (slot, ID) order.
	a.trigTmp = a.trigTmp[:0]
	for _, aq := range a.activeOrdered {
		sp := aq.spec()
		if !sp.IsTimeBased() {
			continue
		}
		qlo := lo
		if aq.since > qlo {
			qlo = aq.since
		}
		for _, ext := range sp.WindowsEndingIn(qlo, wm) {
			if ext.End > aq.until {
				continue
			}
			tr := a.triggerFor(ext)
			tr.queries = append(tr.queries, aq)
		}
	}
	cur := a.table.Latest()
	// One sync serves the whole batch: overlapping extents triggered
	// together share refreshed tree nodes across fires.
	if a.tree != nil && len(a.trigTmp) > 0 {
		a.tree.sync()
	}
	for _, tr := range a.trigTmp {
		a.fireWindow(tr.ext, tr.queries, cur)
	}

	// Session harvest, in (slot, key) order for deterministic emission;
	// sessKeys is maintained sorted so no per-watermark key sort.
	for _, aq := range a.activeOrdered {
		if aq.sessions == nil {
			continue
		}
		keys := aq.sessKeys
		kept := keys[:0]
		for _, key := range keys {
			ss := aq.sessions[key]
			for _, cs := range ss.Harvest(wm) {
				if cs.Extent.End > aq.until {
					continue // session outlived the query
				}
				atomic.AddUint64(&a.metrics.AggOut, 1)
				val := finalizeCountSum(aq.q.Agg, cs.Count, cs.Sum)
				a.router.Deliver(Result{
					QueryID:   aq.q.ID,
					Kind:      aq.q.Kind,
					Window:    cs.Extent,
					Key:       key,
					Value:     val,
					EventTime: cs.Extent.End,
				})
			}
			if ss.Open() == 0 {
				delete(aq.sessions, key)
			} else {
				kept = append(kept, key)
			}
		}
		aq.sessKeys = kept
	}

	// Purge queries whose deletion time has passed; their last windows
	// have fired above.
	purged := false
	for id, aq := range a.active {
		if aq.until <= wm {
			delete(a.active, id)
			purged = true
		}
	}
	if purged {
		a.activeOrdered = filterOrdered(a.activeOrdered, func(aq *aggQuery) bool { return aq.until <= wm })
	}
	selPurged := false
	for id, sq := range a.selection {
		if sq.until <= wm {
			delete(a.selection, id)
			selPurged = true
		}
	}
	if selPurged {
		a.selOrdered = filterOrdered(a.selOrdered, func(sq *aggQuery) bool { return sq.until <= wm })
	}

	// Eviction and history compaction. Retention includes pending-deleted
	// queries (purge already removed the expired ones). Evicted slices
	// return their partials to the freelist.
	specs := a.specsTmp[:0]
	for _, aq := range a.activeOrdered {
		if sp := aq.spec(); sp.IsTimeBased() {
			specs = append(specs, sp)
		}
	}
	a.specsTmp = specs
	retain := func(sl *slice) event.Time {
		r := sl.ext.End
		for _, sp := range specs {
			if e := sp.LastWindowEndCovering(sl.ext.Start); e > r {
				r = e
			}
		}
		return r
	}
	a.sl.evict(wm, retain, func(sl *slice) {
		if sl.ext.End > a.evictedThru {
			a.evictedThru = sl.ext.End
		}
		if sl.aggs != nil {
			for _, g := range sl.aggs.order {
				for _, key := range g.keys {
					a.putVal(g.byKey[key])
				}
			}
			sl.aggs = nil
		}
	})
	a.sl.pruneEpochs(wm - a.lateness)
	// Prune mask versions no in-flight tuple can reference.
	horizon := wm - a.lateness
	i := sort.Search(len(a.maskVersions), func(i int) bool { return a.maskVersions[i].from > horizon }) - 1
	if i > 0 {
		a.maskVersions = append(a.maskVersions[:0], a.maskVersions[i:]...)
	}
	oldest := a.sl.oldestEpochInUse()
	if o := a.sl.minFutureEpoch(wm - a.lateness); o < oldest {
		oldest = o
	}
	a.table.Compact(oldest)
	a.lastWM = wm
}

// fireWindow combines slice partials for one window extent and emits one row
// per (query, key). Triggers with enough queries to dedup or a slice run
// long enough for the tree cover to pay fire through the shared engine;
// small lone triggers (and instances built with disableMergeTree, which
// carry no tree) take the direct per-slice scan. Both arms emit byte-identical streams
// (TestMergeTreeFireAgreesWithScan), so the dispatch is a pure cost choice.
func (a *SharedAggregation) fireWindow(ext window.Extent, queries []*aggQuery, curEpoch uint64) {
	lo, hi := a.sl.overlappingRange(ext)
	if lo == hi {
		return
	}
	if a.tree != nil && (len(queries) >= a.shareMinQueries || hi-lo >= a.shareMinRun) {
		a.fireWindowShared(ext, queries, curEpoch, lo, hi)
		return
	}
	a.fireWindowScan(ext, queries, curEpoch, lo, hi)
}

// buildCapGroups groups a trigger's queries (by index) into capTmp by their
// changelog-set cap: running queries mask to the current epoch,
// pending-deleted ones to the epoch before deletion. Caps per trigger are
// few: linear scan into the reused capTmp.
func (a *SharedAggregation) buildCapGroups(queries []*aggQuery, curEpoch uint64) []*aggCapGroup {
	groups := a.capTmp[:0]
	for qi, aq := range queries {
		capTo := curEpoch
		if aq.endEpoch < capTo {
			capTo = aq.endEpoch
		}
		var g *aggCapGroup
		for _, cg := range groups {
			if cg.cap == capTo {
				g = cg
				break
			}
		}
		if g == nil {
			if len(groups) < cap(groups) {
				groups = groups[:len(groups)+1]
				if groups[len(groups)-1] == nil {
					//lint:ignore hotalloc cold: cap-group objects are recycled across triggers once allocated
					groups[len(groups)-1] = &aggCapGroup{}
				}
			} else {
				//lint:ignore hotalloc amortized: cap-group list grows to the trigger's distinct cap count once
				groups = append(groups, &aggCapGroup{})
			}
			g = groups[len(groups)-1]
			g.cap = capTo
			g.idxs = g.idxs[:0]
		}
		//lint:ignore hotalloc amortized: cap-group index slices grow to the trigger's query count once
		g.idxs = append(g.idxs, qi)
	}
	a.capTmp = groups
	return groups
}

// emitAccum delivers one query's window rows from a sorted key list.
func (a *SharedAggregation) emitAccum(aq *aggQuery, ext window.Extent, keys []int64, byKey map[int64]*aggVal) {
	for _, key := range keys {
		v := byKey[key]
		atomic.AddUint64(&a.metrics.AggOut, 1)
		a.router.Deliver(Result{
			QueryID:     aq.q.ID,
			Kind:        aq.q.Kind,
			Window:      ext,
			Key:         key,
			Value:       v.finalize(aq.q.Agg, aq.q.AggField),
			EventTime:   ext.End,
			IngestNanos: v.IngestNanos,
		})
	}
}

// fireWindowScan is the per-slice re-merge arm: every query's accumulator
// re-merges every overlapping slice's groups — O(slices × groups × keys)
// per query. Kept as the fault-injection fallback and the ablation baseline.
// After warm-up it allocates only for new distinct keys: cap groups,
// accumulators, and partials are all reused.
func (a *SharedAggregation) fireWindowScan(ext window.Extent, queries []*aggQuery, curEpoch uint64, lo, hi int) {
	groups := a.buildCapGroups(queries, curEpoch)

	// One accumulator per query, parallel to queries — which arrive in
	// (slot, ID) order from activeOrdered, so emission below is ordered
	// without an accumulator sort.
	for len(a.accums) < len(queries) {
		//lint:ignore hotalloc cold: accumulators are recycled across triggers once allocated
		a.accums = append(a.accums, &slotAccum{byKey: make(map[int64]*aggVal)})
	}
	accums := a.accums[:len(queries)]
	for i, aq := range queries {
		accums[i].aq = aq
	}

	tick := a.metrics.start()
	for si := lo; si < hi; si++ {
		sl := a.sl.slices[si]
		if sl.aggs == nil {
			continue
		}
		for _, cg := range groups {
			if cg.cap < a.table.Base() {
				continue
			}
			relNow, err := a.table.Rel(sl.epoch, cg.cap)
			if err != nil {
				panic(fmt.Sprintf("core: agg relNow: %v", err))
			}
			if relNow.IsEmpty() {
				continue
			}
			for _, g := range sl.aggs.order {
				g.qs.AndInto(relNow, &a.effTmp)
				if a.effTmp.IsEmpty() {
					continue
				}
				for _, qi := range cg.idxs {
					aq := queries[qi]
					if !a.effTmp.Test(aq.slot) {
						continue
					}
					sa := accums[qi]
					for _, key := range g.keys {
						acc := sa.byKey[key]
						if acc == nil {
							acc = a.getVal()
							sa.byKey[key] = acc
							//lint:ignore hotalloc amortized: accumulator key slices grow to the window's key count once
							sa.keys = append(sa.keys, key)
						}
						acc.merge(g.byKey[key])
					}
				}
			}
		}
	}
	a.metrics.BitsetOps.observe(tick, a.metrics)
	// Emit in (slot, key) order — keys sort once per accumulator — then
	// release the accumulators.
	for _, sa := range accums {
		slices.Sort(sa.keys)
		a.emitAccum(sa.aq, ext, sa.keys, sa.byKey)
		for _, key := range sa.keys {
			a.putVal(sa.byKey[key])
			delete(sa.byKey, key)
		}
		sa.keys = sa.keys[:0]
		sa.aq = nil
	}
}

// fireWindowShared is the shared window-fire engine (DESIGN.md §15). The
// extent's slice run is covered by O(log n) merge-tree nodes whose partials
// are memoized across fires; per cap group, node groups collapse into
// effective-membership classes (one merge each, however many queries share
// it); and queries with identical class fingerprints share one combined
// accumulator, finalized per query at emission.
func (a *SharedAggregation) fireWindowShared(ext window.Extent, queries []*aggQuery, curEpoch uint64, lo, hi int) {
	t := a.tree
	a.nodeTmp = t.cover(t.lo+lo, t.lo+hi-1, a.nodeTmp[:0])
	groups := a.buildCapGroups(queries, curEpoch)

	a.classTmp = a.classTmp[:0]
	a.fpTmp = a.fpTmp[:0]
	a.fpIdx = a.fpIdx[:0]
	for range queries {
		//lint:ignore hotalloc amortized: fingerprint index grows to the trigger's query count once
		a.fpIdx = append(a.fpIdx, -1)
	}

	tick := a.metrics.start()
	for _, cg := range groups {
		if cg.cap < a.table.Base() {
			continue
		}
		clo := len(a.classTmp)
		// Classes only need the bits queries of this cap group test.
		a.qmaskTmp.Reset()
		for _, qi := range cg.idxs {
			a.qmaskTmp.Set(queries[qi].slot)
		}
		for _, ni := range a.nodeTmp {
			n := t.refresh(int(ni))
			if !n.has {
				continue
			}
			view, epoch := t.nodeView(int(ni))
			rel, err := a.table.Rel(epoch, cg.cap)
			if err != nil {
				panic(fmt.Sprintf("core: agg rel: %v", err))
			}
			// Premask the epoch relation with the cap group's slot mask
			// once per node; the group loop then ANDs a single mask.
			rel.AndInto(a.qmaskTmp, &a.relqTmp)
			if a.relqTmp.IsEmpty() {
				continue
			}
			for _, g := range view {
				g.qs.AndInto(a.relqTmp, &a.effTmp)
				if a.effTmp.IsEmpty() {
					continue
				}
				c := a.classFor(clo)
				for _, key := range g.keys {
					v := c.byKey[key]
					if v == nil {
						v = a.getVal()
						c.byKey[key] = v
						//lint:ignore hotalloc amortized: class key slices grow to the window's key count once
						c.keys = append(c.keys, key)
					}
					v.merge(g.byKey[key])
				}
			}
		}
		chi := len(a.classTmp)
		if chi == clo {
			continue
		}
		// Fingerprint each query's class membership; identical
		// fingerprints share one combined accumulator.
		if chi-clo <= 64 {
			for _, qi := range cg.idxs {
				slot := queries[qi].slot
				var m uint64
				for ci := clo; ci < chi; ci++ {
					if a.classTmp[ci].eff.Test(slot) {
						m |= 1 << uint(ci-clo)
					}
				}
				if m == 0 {
					continue
				}
				fi := -1
				for k, f := range a.fpTmp {
					if f.mask == m && f.base == clo {
						fi = k
						break
					}
				}
				if fi < 0 {
					fi = a.newFP(m, clo)
				}
				a.fpIdx[qi] = int32(fi)
			}
		} else {
			// Degenerate width (>64 classes under one cap): skip the
			// dedup, one private accumulator per query.
			for _, qi := range cg.idxs {
				slot := queries[qi].slot
				fi := -1
				for ci := clo; ci < chi; ci++ {
					if !a.classTmp[ci].eff.Test(slot) {
						continue
					}
					if fi < 0 {
						fi = len(a.fpTmp)
						a.acquireFP(0, clo)
					}
					a.mergeClassIntoFP(a.fpTmp[fi], a.classTmp[ci])
				}
				if fi >= 0 {
					a.fpIdx[qi] = int32(fi)
				}
			}
		}
	}
	a.metrics.BitsetOps.observe(tick, a.metrics)

	// Sort every emitting key list once (scan-arm order contract), emit in
	// query order, then drain classes and fingerprints back to the pools.
	for _, c := range a.classTmp {
		slices.Sort(c.keys)
	}
	for _, f := range a.fpTmp {
		if f.cls == nil {
			slices.Sort(f.keys)
		}
	}
	for qi, aq := range queries {
		fi := a.fpIdx[qi]
		if fi < 0 {
			continue
		}
		f := a.fpTmp[fi]
		if f.cls != nil {
			a.emitAccum(aq, ext, f.cls.keys, f.cls.byKey)
		} else {
			a.emitAccum(aq, ext, f.keys, f.byKey)
		}
	}
	for _, c := range a.classTmp {
		for _, key := range c.keys {
			a.putVal(c.byKey[key])
			delete(c.byKey, key)
		}
		c.keys = c.keys[:0]
	}
	for _, f := range a.fpTmp {
		if f.cls == nil {
			for _, key := range f.keys {
				a.putVal(f.byKey[key])
				delete(f.byKey, key)
			}
			f.keys = f.keys[:0]
		}
		f.cls = nil
	}
}

// classFor returns the class in classTmp[from:] whose membership equals
// effTmp, appending (from recycled storage) when new.
func (a *SharedAggregation) classFor(from int) *fireClass {
	for _, c := range a.classTmp[from:] {
		if c.eff.Equal(a.effTmp) {
			return c
		}
	}
	if n := len(a.classTmp); n < cap(a.classTmp) {
		a.classTmp = a.classTmp[:n+1]
	} else {
		//lint:ignore hotalloc amortized: class list grows to the trigger's class count once
		a.classTmp = append(a.classTmp, nil)
	}
	c := a.classTmp[len(a.classTmp)-1]
	if c == nil {
		//lint:ignore hotalloc cold: class objects are recycled across fires once allocated
		c = &fireClass{byKey: make(map[int64]*aggVal)}
		a.classTmp[len(a.classTmp)-1] = c
	}
	c.eff.CopyFrom(a.effTmp)
	return c
}

// acquireFP appends a fingerprint accumulator from recycled storage.
func (a *SharedAggregation) acquireFP(m uint64, base int) *fireFP {
	if n := len(a.fpTmp); n < cap(a.fpTmp) {
		a.fpTmp = a.fpTmp[:n+1]
	} else {
		//lint:ignore hotalloc amortized: fingerprint list grows to the trigger's fingerprint count once
		a.fpTmp = append(a.fpTmp, nil)
	}
	f := a.fpTmp[len(a.fpTmp)-1]
	if f == nil {
		//lint:ignore hotalloc cold: fingerprint objects are recycled across fires once allocated
		f = &fireFP{byKey: make(map[int64]*aggVal)}
		a.fpTmp[len(a.fpTmp)-1] = f
	}
	f.mask, f.base, f.cls = m, base, nil
	f.keys = f.keys[:0]
	return f
}

// newFP materializes the accumulator for fingerprint m over the class range
// starting at base: a single-class fingerprint aliases that class, wider
// ones merge their classes once for every query that shares them.
func (a *SharedAggregation) newFP(m uint64, base int) int {
	f := a.acquireFP(m, base)
	if m&(m-1) == 0 {
		f.cls = a.classTmp[base+bits.TrailingZeros64(m)]
		return len(a.fpTmp) - 1
	}
	for b := m; b != 0; b &= b - 1 {
		a.mergeClassIntoFP(f, a.classTmp[base+bits.TrailingZeros64(b)])
	}
	return len(a.fpTmp) - 1
}

// mergeClassIntoFP merges one class accumulator into a fingerprint's.
func (a *SharedAggregation) mergeClassIntoFP(f *fireFP, c *fireClass) {
	for _, key := range c.keys {
		v := f.byKey[key]
		if v == nil {
			v = a.getVal()
			f.byKey[key] = v
			//lint:ignore hotalloc amortized: fingerprint key slices grow to the window's key count once
			f.keys = append(f.keys, key)
		}
		v.merge(c.byKey[key])
	}
}

// fireBench drives one window fire for the benchmark harness: tree sync plus
// the fire itself, without OnWatermark's harvest/purge/evict bookkeeping, so
// per-op cost is the fire engine. Fires all registered time-window queries.
//
//lint:hotpath shared window-fire kernel steady state
func (a *SharedAggregation) fireBench(ext window.Extent) {
	a.trigTmp = a.trigTmp[:0]
	tr := a.triggerFor(ext)
	for _, aq := range a.activeOrdered {
		if aq.spec().IsTimeBased() && ext.End <= aq.until {
			//lint:ignore hotalloc amortized: trigger query list grows to the active query count once
			tr.queries = append(tr.queries, aq)
		}
	}
	if a.tree != nil {
		a.tree.sync()
	}
	a.fireWindow(ext, tr.queries, a.table.Latest())
}

// ActiveQueries reports registered aggregation queries (tests/metrics).
func (a *SharedAggregation) ActiveQueries() int { return len(a.active) }

// LiveSlices reports the live slice count (tests/metrics).
func (a *SharedAggregation) LiveSlices() int { return a.sl.liveSlices() }
