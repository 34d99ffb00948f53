package queue

// This file holds the queue's tail: the jobs behind the front, laid out in
// (node class, span class) cells in the slot array, and the kinetic
// tournament that keeps their best dep-ready job.

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
)

// classes is the number of node-demand classes: class 0 holds the jobs
// that ask for no node, class c ≥ 1 those asking for [2^(c-1), 2^c) nodes
// by their entry's 32-bit count, the one MayFit compares.
const classes = 33

func classOf(s *Slot) int { return bits.Len32(s.nodes) }

// nodeClass returns the class of a job asking for n nodes, 0 for n ≤ 0.
func nodeClass(n int) int { return bits.Len(uint(max(n, 0))) }

// spanClasses is the number of span classes. A job's span is its walltime
// estimate plus its stage-out, what EASY adds to now to test it against
// the head's shadow time; class 0 holds the spans ≤ 0, class k the spans
// in [2^(k-1), 2^k), and the last class every span from 2^(spanClasses-2)
// up (34 years; job.Validate caps each time at job.MaxDemand).
const spanClasses = 32

func spanClass(span int64) uint8 {
	return uint8(min(bits.Len64(uint64(max(span, 0))), spanClasses-1))
}

// compareCell orders slots by node class, then span class, for the
// fallback sort's tail.
func compareCell(a, b Slot) int {
	return cmp.Or(cmp.Compare(classOf(&a), classOf(&b)), cmp.Compare(a.span, b.span))
}

// start returns where class c's slots begin.
func (q *Queue) start(c int) int {
	if c <= q.low {
		return q.front
	}
	return q.cut[c-1]
}

// use widens the classes in use, [low, top), to take in class c.
func (q *Queue) use(c int) {
	if q.top == 0 {
		q.low, q.top = c, c
	}
	for ; q.low > c; q.low-- {
		q.cut[q.low-1] = q.front
	}
	for ; q.top <= c; q.top++ {
		q.cut[q.top] = len(q.slots)
	}
}

// readable returns where the tail's classes that may hold a job of at
// most freeNodes nodes end: a class is read when its smallest possible
// member fits.
func (q *Queue) readable(freeNodes int) int {
	c := nodeClass(freeNodes)
	switch {
	case c >= q.top:
		return len(q.slots)
	case c < q.low:
		return q.front
	}
	return q.cut[c]
}

// above returns the cells of class c from span class k up that hold a job.
func (q *Queue) above(c, k int) uint32 { return q.cells[c] >> k << k }

// below returns the cells of class c under span class k that hold a job.
func (q *Queue) below(c, k int) uint32 { return q.cells[c] &^ q.above(c, k) }

// cellStart returns where cell (c, k)'s jobs begin, counted from class c's
// start: the sizes of the class's cells below it.
func (q *Queue) cellStart(c, k int) int {
	n := 0
	for m := q.below(c, k); m != 0; m &= m - 1 {
		n += int(q.sizes[c][bits.TrailingZeros32(m)])
	}
	return n
}

// resize grows cell (c, k) by delta jobs.
func (q *Queue) resize(c, k, delta int) {
	if q.sizes[c][k] += int32(delta); q.sizes[c][k] > 0 {
		q.cells[c] |= 1 << k
	} else {
		q.cells[c] &^= 1 << k
	}
}

// move copies the tail job at slots[from] to slots[to], keeping its leaf
// on it.
func (q *Queue) move(from, to int) {
	q.slots[to] = q.slots[from]
	q.tour.leaves[q.slots[to].leaf].pos = int32(to)
}

// raise moves each cell of class c in cells, the highest of which ends at
// end and each of which ends where the next begins, one slot up, highest
// first: the hole is in or at the end of the highest, and each cell's first
// job moves into it. It returns where the hole ends, at the lowest cell's
// start.
func (q *Queue) raise(c int, cells uint32, end, hole int) int {
	for ; cells != 0; cells &^= 1 << (bits.Len32(cells) - 1) {
		if end -= int(q.sizes[c][bits.Len32(cells)-1]); end != hole {
			q.move(end, hole)
			hole = end
		}
	}
	return hole
}

// lower moves each cell of class c in cells, the lowest of which begins at
// start and each of which begins where the one below ends, one slot down,
// lowest first: the hole is in or just below the lowest, and each cell's
// last job moves into it. It returns where the hole ends, at the highest
// cell's end less one.
func (q *Queue) lower(c int, cells uint32, start, hole int) int {
	for ; cells != 0; cells &= cells - 1 {
		if start += int(q.sizes[c][bits.TrailingZeros32(cells)]); start-1 != hole {
			q.move(start-1, hole)
			hole = start - 1
		}
	}
	return hole
}

// open makes room for one more job at the end of cell (c, k) by moving the
// first job of each cell above it, in its class and in every class above,
// to that cell's end, and returns the free index.
func (q *Queue) open(c, k int) int {
	q.use(c)
	q.slots = append(q.slots, Slot{})
	hole := len(q.slots) - 1
	for d := q.top - 1; d > c; d-- {
		hole = q.raise(d, q.cells[d], q.cut[d], hole)
		q.cut[d]++
	}
	hole = q.raise(c, q.above(c, k+1), q.cut[c], hole)
	q.cut[c]++
	q.resize(c, k, 1)
	return hole
}

// close removes slots[i], undoing open: a front job's hole closes up, so
// the front stays in order; a tail job's is filled with its cell's last
// job, and so on up the cells and classes.
func (q *Queue) close(i int) {
	d := q.low
	if i < q.front {
		q.leaveFront(i)
		i = q.front
	} else {
		d = classOf(&q.slots[i])
		k := int(q.slots[i].span)
		i = q.lower(d, q.above(d, k), q.start(d)+q.cellStart(d, k), i)
		q.cut[d]--
		q.resize(d, k, -1)
		d++
	}
	for ; d < q.top; d++ {
		i = q.lower(d, q.cells[d], i+1, i)
		q.cut[d]--
	}
	last := len(q.slots) - 1
	q.slots[last] = Slot{}
	q.slots = q.slots[:last]
}

// tournament is a kinetic tournament (Basch, Guibas & Hershberger, SODA
// 1997) over the tail's jobs. Each node holds the best dep-ready job of
// its subtree by the policy's exact priority and before, at the instant
// it was decided, the instant its own pair's order may first change (the
// policy's Overtake) and the earliest such instant in its subtree.
// Bringing the tournament to a later instant visits only the subtrees
// whose earliest instant has come and re-decides only the pairs that
// expired or changed; a job that joins, leaves or changes dep-readiness
// marks its path to visit.
//
// Only tail jobs hold leaves, each keeping its slot's index. ids maps
// every waiting job's ID to its place: its leaf and its window age, or
// leaf -1 for a front job, which a scan of the short front then finds and
// whose slot holds its age. A pair is known by its two leaves,
// so a freed leaf is handed out again only after a settle has passed over
// its path.
type tournament struct {
	// node[v], 0 < v < size, is an internal node: its children are 2v and
	// 2v+1, and child size+i is leaf i.
	node   []tourNode
	size   int
	leaves []leaf
	free   []int32 // leaves without a job
	freed  []int32 // leaves freed since the last settle
	deps   []int32 // leaves of the tail's jobs with dependencies
	live   int     // dep-ready tail leaves
	now    int64   // the instant of the last settle
	ids    map[int]place
}

// place is where a waiting job is: on a leaf of the tail with its window
// age, or in the front (leaf -1).
type place struct{ leaf, age int32 }

// find returns job id's slot, -1 if it is not waiting.
func (q *Queue) find(id int) int {
	ref, ok := q.tour.ids[id]
	switch {
	case !ok:
		return -1
	case ref.leaf >= 0:
		return int(q.tour.leaves[ref.leaf].pos)
	}
	for i := range q.slots[:q.front] {
		if q.slots[i].ID == id {
			return i
		}
	}
	return -1
}

// tourNode is one decided pair: win is ordered before lose (-1 when the
// other child is empty) from the decision until own; until is the earliest
// own in the subtree, or stale (math.MinInt64) on the path of a leaf that
// changed since the last settle.
type tourNode struct {
	win, lose  int32
	own, until int64
}

// leaf is one tail job's place in the tournament.
type leaf struct {
	pos   int32 // its job's slot
	ready bool  // its job is dep-ready, and so competes
	at    int64 // the instant its slot's Prio is for
}

const stale = math.MinInt64

// winner returns the leaf of the tail's best dep-ready job, or -1.
func (t *tournament) winner() int32 {
	if t.size < 2 {
		return -1
	}
	return t.node[1].win
}

// grab returns a leaf without a job, widening the tree when none is left.
// A leaf freed since the last settle may still stand in a pair on its
// path, so taking one of those makes every pair there re-decide.
func (t *tournament) grab() int32 {
	if n := len(t.free); n > 0 {
		id := t.free[n-1]
		t.free = t.free[:n-1]
		return id
	}
	if n := len(t.freed); n > 0 {
		id := t.freed[n-1]
		t.freed = t.freed[:n-1]
		for v := (t.size + int(id)) >> 1; v >= 1; v >>= 1 {
			t.node[v].own, t.node[v].until = stale, stale
		}
		return id
	}
	id := int32(len(t.leaves))
	t.leaves = append(t.leaves, leaf{})
	if len(t.leaves) > t.size {
		t.resize(max(4, 2*t.size))
	}
	return id
}

// resize makes the tree size leaves wide, every internal node stale.
func (t *tournament) resize(size int) {
	if cap(t.node) < size {
		t.node = make([]tourNode, size)
	}
	t.node, t.size = t.node[:size], size
	t.markAll()
}

// markAll makes every internal node stale.
func (t *tournament) markAll() {
	for v := 1; v < t.size; v++ {
		t.node[v].own, t.node[v].until = stale, stale
	}
}

// settled reports whether a settle has passed over leaf id's path since
// it last changed, so that no pair stands on it unless it competes.
func (t *tournament) settled(id int32) bool {
	return t.size > 1 && t.node[(t.size+int(id))>>1].until != stale
}

// set makes leaf id dep-ready or not, marking its path stale on a change.
func (t *tournament) set(id int32, ready bool) {
	l := &t.leaves[id]
	if l.ready == ready {
		return
	}
	if l.ready = ready; ready {
		t.live++
	} else {
		t.live--
	}
	for v := (t.size + int(id)) >> 1; v >= 1 && t.node[v].until != stale; v >>= 1 {
		t.node[v].until = stale
	}
}

// attach gives the tail job at slots[i] a leaf, dep-ready or not, whose
// slot's Prio is for at.
func (q *Queue) attach(i int, ready bool, at int64) {
	t := &q.tour
	id := t.grab()
	s := &q.slots[i]
	s.leaf, t.leaves[id] = id, leaf{pos: int32(i), at: at}
	if s.HasDeps {
		t.deps = append(t.deps, id)
	}
	t.set(id, ready)
}

// release takes leaf id's tail job out of the tournament and hands the
// leaf back: at once if it stands in no pair, after the next settle if it
// may.
func (q *Queue) release(id int32) {
	t := &q.tour
	q.leave(id)
	if t.settled(id) {
		t.free = append(t.free, id)
	} else {
		t.freed = append(t.freed, id)
	}
}

// leave takes the tail job on leaf id out of the tournament and out of the
// dependency list.
func (q *Queue) leave(id int32) {
	t := &q.tour
	if q.slots[t.leaves[id].pos].HasDeps {
		t.deps = cut(t.deps, id)
	}
	t.set(id, false)
}

// cut removes id from list, not keeping the order.
func cut(list []int32, id int32) []int32 {
	k := slices.Index(list, id)
	list[k] = list[len(list)-1]
	return list[:len(list)-1]
}

// promote moves leaf id's job, prioritized at now, to the end of the
// front, its age held as a front slot's: the first job of each cell from
// its own down moves up into the hole it leaves. The floor, if held, takes
// the later of its key and the job's, and moves to now; a job whose
// priority may fall drops it.
func (q *Queue) promote(id int32, now int64) {
	if q.fresh == q.front || q.freshAt != now {
		// The jobs promoted before join the rest, whose priorities are for
		// one instant only if theirs are for it too.
		if q.fresh < q.front && q.freshAt != q.frontAt {
			q.frontAt = math.MinInt64
		}
		q.fresh, q.freshAt = q.front, now
	}
	i := int(q.tour.leaves[id].pos)
	q.release(id)
	s := q.slots[i]
	c, k := classOf(&s), int(s.span)
	i = q.raise(c, q.below(c, k+1), q.start(c)+q.cellStart(c, k+1), i)
	q.resize(c, k, -1)
	for d := c - 1; d >= q.low; d-- {
		i = q.raise(d, q.cells[d], q.cut[d], i)
		q.cut[d]++
	}
	s.leaf = q.tour.ids[s.ID].age - int32(q.passes)
	q.tour.ids[s.ID] = place{leaf: -1}
	q.slots[i] = s
	q.front++
	q.ordered = false
	q.count(&q.slots[i], 1)
	switch {
	case q.frontFalls > 0:
		q.floored = false
	case q.floored:
		if !q.aboveFloor(&q.slots[i]) {
			q.floor = markOf(&q.slots[i])
		}
		q.floorAt = now
	}
}

// demote moves the front job at slots[i] to the start of its cell in the
// tail, with its age: the front closes up, and the last job of each cell
// below moves down into the hole.
func (q *Queue) demote(i int, ready bool) {
	s, at, age := q.slots[i], q.prioAtFront(i), int32(q.ageAt(i))
	patchNaN(&s)
	c, k := classOf(&s), int(s.span)
	q.use(c)
	q.leaveFront(i)
	i = q.front
	for d := q.low; d < c; d++ {
		i = q.lower(d, q.cells[d], i+1, i)
		q.cut[d]--
	}
	i = q.lower(c, q.below(c, k), i+1, i)
	q.resize(c, k, 1)
	q.slots[i] = s
	q.attach(i, ready, at)
	q.tour.ids[s.ID] = place{q.slots[i].leaf, age}
}

// leaveFront takes front slot i out of the front: the front closes up over
// it, leaving its last slot, slots[front], free.
func (q *Queue) leaveFront(i int) {
	q.count(&q.slots[i], -1)
	if i < q.fresh {
		q.fresh--
	}
	q.rank.prio = q.rank.prio[:0] // Before's values are for slots that move
	q.front--
	copy(q.slots[i:q.front], q.slots[i+1:q.front+1])
}

// count adds d to the front's counts for the job at s: of jobs that list a
// dependency, of jobs whose priority may fall, and of jobs in its node
// class.
func (q *Queue) count(s *Slot, d int) {
	if s.HasDeps {
		q.frontDeps += d
	}
	if q.riser == nil || !q.riser.Rises(s) {
		q.frontFalls += d
	}
	c := classOf(s)
	if q.frontClass[c] += int32(d); q.frontClass[c] > 0 {
		q.frontCells |= 1 << c
	} else {
		q.frontCells &^= 1 << c
	}
}

// checkDeps brings the dep-readiness of the tail's jobs with dependencies
// up to date.
func (q *Queue) checkDeps(depsDone func(id int) bool) {
	t := &q.tour
	for _, id := range t.deps {
		t.set(id, depsReady(q.slots[t.leaves[id].pos].Job, depsDone))
	}
}

// prioAt returns the tail slot at i with its priority at now, evaluating
// it unless it already is.
func (q *Queue) prioAt(i int, now int64) *Slot {
	s := &q.slots[i]
	if at := &q.tour.leaves[s.leaf].at; *at != now {
		q.policy.Prioritize(q.slots[i:i+1], now)
		patchNaN(s)
		*at = now
	}
	return s
}

// leafSlot returns leaf id's slot with its priority at now.
func (q *Queue) leafSlot(id int32, now int64) *Slot {
	return q.prioAt(int(q.tour.leaves[id].pos), now)
}

// settle brings the tournament to now. Certificates hold from the instant
// they were made on, so a clock set back makes every node stale.
func (q *Queue) settle(now int64) {
	t := &q.tour
	if now < t.now {
		t.markAll()
	}
	t.now = now
	if t.size > 1 && t.node[1].until <= now {
		q.decide(1, now)
	}
	t.free = append(t.free, t.freed...)
	t.freed = t.freed[:0]
}

// decide brings node v, whose subtree's earliest instant has come, to now:
// its children first, then its own pair, compared and certified afresh
// only if its certificate expired or a child's winner changed.
func (q *Queue) decide(v int, now int64) {
	l, lu := q.child(2*v, now)
	r, ru := q.child(2*v+1, now)
	n := &q.tour.node[v]
	switch {
	case l < 0 || r < 0:
		n.win, n.lose, n.own = max(l, r), -1, math.MaxInt64
	case n.own <= now || !(n.win == l && n.lose == r || n.win == r && n.lose == l):
		a, b := q.leafSlot(l, now), q.leafSlot(r, now)
		n.win, n.lose = l, r
		if before(b, a) {
			a, b, n.win, n.lose = b, a, r, l
		}
		n.own = now + 1
		if q.over != nil {
			n.own = max(q.over.Overtake(a, b, now), now+1)
		}
	}
	n.until = min(n.own, lu, ru)
}

// child brings node c to now, deciding it if its subtree's earliest
// instant has come, and returns its winner, -1 if none, and the earliest
// instant that may change.
func (q *Queue) child(c int, now int64) (int32, int64) {
	t := &q.tour
	if c < t.size {
		if t.node[c].until <= now {
			q.decide(c, now)
		}
		return t.node[c].win, t.node[c].until
	}
	if id := c - t.size; id < len(t.leaves) && t.leaves[id].ready {
		return int32(id), math.MaxInt64
	}
	return -1, math.MaxInt64
}

// rebuild makes slots[front:] the tail afresh: laid out in cells, every
// priority evaluated at now, the tail on leaves by slot order, in a tree
// as wide as the tail, every pair to decide anew, the front counted
// afresh and its floor dropped. Every slot holds its job's age as a front
// slot does, and a tail job takes its own back.
func (q *Queue) rebuild(now int64, depsDone func(id int) bool) {
	tail := q.slots[q.front:]
	slices.SortFunc(tail, compareCell)
	q.sizes, q.cells = [classes][spanClasses]int32{}, [classes]uint32{}
	t := &q.tour
	q.frontDeps, q.frontFalls, q.frontClass, q.frontCells, q.floored = 0, 0, [classes]int32{}, 0, false
	for i := range q.slots[:q.front] {
		t.ids[q.slots[i].ID] = place{leaf: -1}
		q.count(&q.slots[i], 1)
	}
	t.leaves = slices.Grow(t.leaves[:0], len(tail))[:len(tail)]
	t.free, t.freed, t.deps, t.live = t.free[:0], t.freed[:0], t.deps[:0], 0
	t.resize(max(4, 1<<bits.Len(uint(len(tail)))))
	q.top = 0
	for k := range tail {
		s, i := &tail[k], q.front+k
		age := s.leaf + int32(q.passes)
		c := classOf(s)
		if q.top == 0 {
			q.low, q.top = c, c
		}
		for ; q.top <= c; q.top++ {
			q.cut[q.top] = i
		}
		q.cut[q.top-1] = i + 1
		q.resize(c, int(s.span), 1)
		s.leaf, t.leaves[k], t.ids[s.ID] = int32(k), leaf{pos: int32(i), at: now}, place{int32(k), age}
		if s.HasDeps {
			t.deps = append(t.deps, int32(k))
		}
		if t.leaves[k].ready = !s.HasDeps || depsReady(s.Job, depsDone); t.leaves[k].ready {
			t.live++
		}
	}
}
