package queue

// This file holds the queue's tail: the jobs behind the front, grouped by
// node class in the slot array, and the kinetic tournament that keeps
// their best dep-ready job.

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

// compareClass orders slots by class, for the fallback sort's tail.
func compareClass(a, b Slot) int { return cmp.Compare(classOf(&a), classOf(&b)) }

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
	c := 0
	if freeNodes > 0 {
		c = bits.Len(uint(freeNodes))
	}
	switch {
	case c >= q.top:
		return len(q.slots)
	case c < q.low:
		return q.front
	}
	return q.cut[c]
}

// move copies the tail job at slots[from] to slots[to], keeping its leaf
// on it.
func (q *Queue) move(from, to int) {
	q.slots[to] = q.slots[from]
	q.tour.leaves[q.slots[to].leaf].pos = int32(to)
}

// open makes room for one more job at the end of class c by moving the
// first job of each class above it to that class's end, and returns the
// free index.
func (q *Queue) open(c int) int {
	q.use(c)
	q.slots = append(q.slots, Slot{})
	hole := len(q.slots) - 1
	for d := q.top - 1; d > c; d-- {
		if st := q.start(d); st < hole {
			q.move(st, hole)
			hole = st
		}
		q.cut[d]++
	}
	q.cut[c]++
	return hole
}

// close removes slots[i], undoing open: a front job's hole closes up, so
// the front stays in order; a tail job's is filled with its class's last
// job, and so on up the classes.
func (q *Queue) close(i int) {
	d := q.low
	if i < q.front {
		q.leaveFront(i)
		i = q.front
	} else {
		d = classOf(&q.slots[i])
	}
	for ; d < q.top; d++ {
		if q.cut[d]--; q.cut[d] != i {
			q.move(q.cut[d], i)
			i = q.cut[d]
		}
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
// every waiting job's ID to its leaf, or to -1 for a front job, which a
// scan of the short front then finds. A pair is known by its two leaves,
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
	ids    map[int]int32
}

// find returns job id's slot, -1 if it is not waiting.
func (q *Queue) find(id int) int {
	ref, ok := q.tour.ids[id]
	switch {
	case !ok:
		return -1
	case ref >= 0:
		return int(q.tour.leaves[ref].pos)
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
// front, its age counted from now on: the first job of each class from its
// own down moves up into the hole it leaves.
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
	for d := classOf(&s); d >= q.low; d-- {
		if st := q.start(d); st < i {
			q.move(st, i)
			i = st
		}
		if d > q.low {
			q.cut[d-1]++
		}
	}
	s.leaf, q.tour.ids[s.ID] = int32(q.passes), -1
	q.slots[i] = s
	q.front++
	q.ordered = false
	if s.HasDeps {
		q.frontDeps++
	}
}

// demote moves the front job at slots[i] to the start of its class in the
// tail, its counted age written: the front closes up, and the last job of
// each class below moves down into the hole.
func (q *Queue) demote(i int, ready bool) {
	q.writeAge(i)
	s, at := q.slots[i], q.prioAtFront(i)
	patchNaN(&s)
	c := classOf(&s)
	q.use(c)
	q.leaveFront(i)
	i = q.front
	for d := q.low; d < c; d++ {
		if q.cut[d]--; q.cut[d] != i {
			q.move(q.cut[d], i)
			i = q.cut[d]
		}
	}
	q.slots[i] = s
	q.attach(i, ready, at)
	q.tour.ids[s.ID] = q.slots[i].leaf
}

// leaveFront takes front slot i out of the front: the front closes up over
// it, leaving its last slot, slots[front], free.
func (q *Queue) leaveFront(i int) {
	if q.slots[i].HasDeps {
		q.frontDeps--
	}
	if i < q.fresh {
		q.fresh--
	}
	q.rank.prio = q.rank.prio[:0] // Before's values are for slots that move
	q.front--
	copy(q.slots[i:q.front], q.slots[i+1:q.front+1])
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

// rebuild makes slots[front:] the tail afresh: grouped by class, every
// priority evaluated at now, the tail on leaves by slot order, in a tree
// as wide as the tail, every pair to decide anew. Every slot's leaf field
// holds its age count, and a job that was in the front has its age
// written as it joins the tail.
func (q *Queue) rebuild(now int64, depsDone func(id int) bool) {
	tail := q.slots[q.front:]
	slices.SortFunc(tail, compareClass)
	t := &q.tour
	q.frontDeps = 0
	for i := range q.slots[:q.front] {
		t.ids[q.slots[i].ID] = -1
		if q.slots[i].HasDeps {
			q.frontDeps++
		}
	}
	t.leaves = slices.Grow(t.leaves[:0], len(tail))[:len(tail)]
	t.free, t.freed, t.deps, t.live = t.free[:0], t.freed[:0], t.deps[:0], 0
	t.resize(max(4, 1<<bits.Len(uint(len(tail)))))
	q.top = 0
	for k := range tail {
		s, i := &tail[k], q.front+k
		if t.ids[s.ID] < 0 {
			q.writeAge(i) // it leaves the front
		}
		c := classOf(s)
		if q.top == 0 {
			q.low, q.top = c, c
		}
		for ; q.top <= c; q.top++ {
			q.cut[q.top] = i
		}
		q.cut[q.top-1] = i + 1
		s.leaf, t.leaves[k], t.ids[s.ID] = int32(k), leaf{pos: int32(i), at: now}, int32(k)
		if s.HasDeps {
			t.deps = append(t.deps, int32(k))
		}
		if t.leaves[k].ready = !s.HasDeps || depsReady(s.Job, depsDone); t.leaves[k].ready {
			t.live++
		}
	}
}
