// Package dualjoin provides the machinery shared by the dual-tree joins
// of the three index backends: the SELF-join (index.SelfMultiCounter —
// every indexed element's neighbor counts at every radius) and the
// CROSS-join (index.CrossMultiCounter — for every query of a second set,
// the first radius with an indexed neighbor). Both walk the full radius
// schedule once with per-pair window narrowing; what lives here is
// everything the traversals share: the credit accumulators, their pooled
// scheduling across traversal units, the commutative merges, the
// window-narrowing step, and the min/max bounds between bounding boxes.
//
// Since the backends moved to flat arena layouts, every tree identifies
// its nodes by dense int32 indices and stores the elements under a
// subtree as ONE contiguous range of "positions" (the arena's packed
// element order). The accumulators exploit both: credits address flat
// rows by position or node index — no maps, no pointer keys — and a
// wholesale subtree credit is pushed down by a linear walk over the
// node's position range, shared here instead of re-implemented as a
// recursion in every backend.
//
// Memory model (ROADMAP d): CountMatrix keeps ONE merged difference
// matrix for the whole join — never one full matrix per pooled
// accumulator. A serial run writes it in place; a parallel run gives
// each worker fixed-budget per-shard credit buffers that flush into the
// shared matrix under that shard's lock, so per-worker peak memory is
// O(n·a/workers) (plus a constant per shard) instead of O(n·a). Every
// credit is a commutative integer add, so the result is identical for
// every worker count and flush interleaving.
//
// Leaf-scan folds (fold.go): a buffered credit is a 16-byte record
// replayed later under a lock, so a parallel join costs what it
// credits. The kd-tree and R-tree joins therefore never credit a close
// point pair on its own: each leaf scan tallies its close pairs per
// point and per radius bucket, then credits each point once per
// non-empty bucket. On the http benchmark scene (22,202 3-d points,
// R-tree, 2 workers) that cuts a Detect's point credits from 119.1M to
// 15.1M — the self-join's from 81.6M to 11.7M, the survivors' cross
// joins' from 37.5M to 3.4M — beside 0.13M wholesale node credits, and
// Detect from 2.2 s to 1.2 s at 2 workers (2.9–3.2 s to 2.0–2.3 s at 1
// worker) on a 2-vCPU VM. The slim-tree credits per element pair: each
// of its pairs costs a metric evaluation, which dwarfs the credit.
package dualjoin

import (
	"sync"

	"mccatch/internal/kernel"
	"mccatch/internal/parallel"
)

// quadStride is the flat encoding of one buffered credit:
// (row index, from, to, count) as four int32s.
const quadStride = 4

// minShardQuads is the smallest per-shard buffer; below it the flush
// locks would outweigh the buffered adds.
const minShardQuads = 64

// BudgetHook, when non-nil, receives the buffered-mode sizing of every
// parallel CountMatrix call: the resolved worker count, the shard counts
// and the per-worker buffer budget in quads. Tests use it to pin the
// O(n·a/workers) per-worker bound; production leaves it nil.
var BudgetHook func(workers, pointShards, nodeShards, quadsPerWorker int)

// matrices is the shared credit sink of one CountMatrix call: the merged
// per-position difference rows, the per-node wholesale rows, and the
// shard locks parallel workers flush under.
type matrices struct {
	stride  int
	point   []int // position p, radius e → point[p*stride+e]
	node    []int // node index d, radius e → node[d*stride+e]
	pointMu []sync.Mutex
	nodeMu  []sync.Mutex
	// pointsPerShard / nodesPerShard map a row index to its lock.
	pointsPerShard, nodesPerShard int
}

// Acc is one worker's credit sink. In direct mode (serial runs) the
// credits go straight into the shared matrices, held right on the Acc so
// the fast path is two indexed adds; in buffered mode each credit is
// appended to a small per-shard buffer that flushes into the shared
// matrix under that shard's lock when full. Crediting sits in the
// innermost loop of every join, so the methods are concrete (the former
// generic accumulator went through a dictionary the compiler would not
// inline) and the buffered slow path lives in separate functions to keep
// CreditPos/CreditNode within the inlining budget.
type Acc struct {
	Stride int // len(radii) + 1
	// Point and Node are the shared matrices themselves in direct mode
	// (element position p's difference row is Point[p*Stride:], node d's
	// is Node[d*Stride:]) and nil in buffered mode. They are exported
	// raw: crediting sits in the innermost loops of the joins, and the
	// method call below — with its buffered fallback — exceeds the
	// inlining budget, so the slim-tree's element-pair credit sites
	// write the two row adds directly when Point is non-nil and fall
	// back to CreditPos/CreditNode otherwise. The box trees' leaf scans
	// credit through the folds (fold.go), which do the same inside this
	// package.
	Point, Node []int
	m           *matrices
	// buffered mode: flat quads per shard, fixed capacity each.
	pointBuf [][]int32
	nodeBuf  [][]int32
	shardCap int
	// fs is the box-tree folds' leaf-scan scratch (fold.go), taken from
	// a package pool on the first scan and returned when the join ends.
	fs *foldScratch
}

// CreditPos adds cnt to the element position's count at every radius in
// [from, to).
func (a *Acc) CreditPos(pos int32, from, to, cnt int) {
	if row := a.Point; row != nil {
		row = row[int(pos)*a.Stride:]
		row[from] += cnt
		row[to] -= cnt
		return
	}
	a.bufferPos(pos, from, to, cnt)
}

// CreditNode adds cnt wholesale to every element under node at every
// radius in [from, to); the range is pushed down to the node's positions
// during the final merge.
func (a *Acc) CreditNode(node int32, from, to, cnt int) {
	if row := a.Node; row != nil {
		row = row[int(node)*a.Stride:]
		row[from] += cnt
		row[to] -= cnt
		return
	}
	a.bufferNode(node, from, to, cnt)
}

func (a *Acc) bufferPos(pos int32, from, to, cnt int) {
	s := int(pos) / a.m.pointsPerShard
	a.pointBuf[s] = append(a.pointBuf[s], pos, int32(from), int32(to), int32(cnt))
	if len(a.pointBuf[s]) >= a.shardCap*quadStride {
		a.flushPoint(s)
	}
}

func (a *Acc) bufferNode(node int32, from, to, cnt int) {
	s := int(node) / a.m.nodesPerShard
	a.nodeBuf[s] = append(a.nodeBuf[s], node, int32(from), int32(to), int32(cnt))
	if len(a.nodeBuf[s]) >= a.shardCap*quadStride {
		a.flushNode(s)
	}
}

func applyQuads(dst []int, stride int, buf []int32) {
	for i := 0; i+3 < len(buf); i += quadStride {
		row := dst[int(buf[i])*stride:]
		row[buf[i+1]] += int(buf[i+3])
		row[buf[i+2]] -= int(buf[i+3])
	}
}

func (a *Acc) flushPoint(s int) {
	a.m.pointMu[s].Lock()
	applyQuads(a.m.point, a.Stride, a.pointBuf[s])
	a.m.pointMu[s].Unlock()
	a.pointBuf[s] = a.pointBuf[s][:0]
}

func (a *Acc) flushNode(s int) {
	a.m.nodeMu[s].Lock()
	applyQuads(a.m.node, a.Stride, a.nodeBuf[s])
	a.m.nodeMu[s].Unlock()
	a.nodeBuf[s] = a.nodeBuf[s][:0]
}

// flushAll drains every remaining buffered credit into the shared
// matrices; CountMatrix calls it once per pooled accumulator after the
// traversal units finish.
func (a *Acc) flushAll() {
	if a.Point != nil {
		return
	}
	for s := range a.pointBuf {
		if len(a.pointBuf[s]) > 0 {
			a.flushPoint(s)
		}
	}
	for s := range a.nodeBuf {
		if len(a.nodeBuf[s]) > 0 {
			a.flushNode(s)
		}
	}
}

// shardCap bounds the shard count regardless of the worker budget
// (ROADMAP k). The default 4·workers sizing came from GOMAXPROCS-sized
// worker pools on small machines; on a many-core host it would mint
// hundreds of shards, and since every pooled accumulator keeps one
// buffer per shard, per-worker memory and flush bookkeeping grow with
// the shard count while the contention relief beyond a few dozen locks
// is already negligible (each flush holds its lock for a bounded burst
// of integer adds). 64 shards keep the expected lock collision rate
// under ~2% even with 4 workers flushing constantly, and
// BenchmarkCountMatrixShards{Capped,Wide} pins that the cap is no
// slower than the uncapped sizing it replaces. Declared as a variable
// only so that benchmark pair can widen it in-process; nothing else may
// write it.
var shardCap = 64

// shardsFor splits rows across one lock per ~rowsPerWorker rows: 4 locks
// per worker (so a worker colliding on one shard has dozens of others to
// flush meanwhile), capped above by shardCap — the GOMAXPROCS-derived
// worker count stops driving the shard count past the point of usefulness
// — and below by the row count so tiny inputs do not drown in mutexes.
func shardsFor(rows, workers int) int {
	shards := 4 * workers
	if shards > shardCap {
		shards = shardCap
	}
	if shards > rows {
		shards = rows
	}
	if shards < 1 {
		shards = 1
	}
	return shards
}

// CountMatrix runs units traversal units across the worker budget and
// assembles counts[e][id] for a radii, n element positions and nodes
// arena nodes. visit performs unit u's traversal, crediting into acc;
// elemRange returns the contiguous position range [first, last) of the
// elements under a node (the arena layouts guarantee contiguity), and
// idOf maps a position to its element id. The merged matrix exists ONCE
// regardless of the worker count: serial runs write it directly, and
// parallel workers buffer credits per shard — O(n·a/workers) per worker
// — flushing under shard locks. Credits are commutative integer adds,
// so the result is identical for every worker count.
func CountMatrix(a, n, nodes, workers, units int,
	visit func(u int, acc *Acc),
	elemRange func(node int32) (int32, int32),
	idOf func(pos int32) int) [][]int {

	counts := make([][]int, a)
	for e := range counts {
		counts[e] = make([]int, n)
	}
	if a == 0 || n == 0 || units == 0 {
		return counts
	}
	stride := a + 1
	w := parallel.Workers(workers)
	if w > units {
		w = units
	}
	m := &matrices{
		stride: stride,
		point:  make([]int, n*stride),
		node:   make([]int, nodes*stride),
	}
	if w <= 1 {
		acc := &Acc{Stride: stride, Point: m.point, Node: m.node}
		for u := 0; u < units; u++ {
			visit(u, acc)
		}
		acc.releaseScratch()
	} else {
		pShards := shardsFor(n, w)
		nShards := shardsFor(nodes, w)
		m.pointsPerShard = (n + pShards - 1) / pShards
		m.nodesPerShard = (nodes + nShards - 1) / nShards
		if m.nodesPerShard < 1 {
			m.nodesPerShard = 1
		}
		m.pointMu = make([]sync.Mutex, pShards)
		m.nodeMu = make([]sync.Mutex, nShards)
		// Per-worker budget: one worker's buffers hold at most ~1/w of the
		// merged matrix (in quads), floored per shard so flushes stay
		// amortized — the O(n·a/workers) bound of ROADMAP (d).
		budget := (n + nodes) * stride / (2 * w)
		shardCap := budget / (pShards + nShards)
		if shardCap < minShardQuads {
			shardCap = minShardQuads
		}
		if BudgetHook != nil {
			BudgetHook(w, pShards, nShards, shardCap*(pShards+nShards))
		}
		var mu sync.Mutex
		var accs []*Acc
		pool := sync.Pool{New: func() any {
			ac := &Acc{Stride: stride, m: m, shardCap: shardCap,
				pointBuf: make([][]int32, pShards),
				nodeBuf:  make([][]int32, nShards)}
			for s := range ac.pointBuf {
				ac.pointBuf[s] = make([]int32, 0, shardCap*quadStride)
			}
			for s := range ac.nodeBuf {
				ac.nodeBuf[s] = make([]int32, 0, shardCap*quadStride)
			}
			mu.Lock()
			accs = append(accs, ac)
			mu.Unlock()
			return ac
		}}
		parallel.For(w, units, func(u int) {
			ac := pool.Get().(*Acc)
			visit(u, ac)
			pool.Put(ac)
		})
		for _, ac := range accs {
			ac.flushAll()
			ac.releaseScratch()
		}
	}

	// Push the wholesale node credits down to their contiguous position
	// ranges, then prefix-sum each position's difference row into the
	// id-keyed result.
	for d := 0; d < nodes; d++ {
		row := m.node[d*stride : d*stride+stride]
		dirty := false
		for _, v := range row {
			if v != 0 {
				dirty = true
				break
			}
		}
		if !dirty {
			continue
		}
		first, last := elemRange(int32(d))
		for p := first; p < last; p++ {
			dst := m.point[int(p)*stride:]
			for k, v := range row {
				dst[k] += v
			}
		}
	}
	parallel.For(workers, n, func(p int) {
		run := 0
		row := m.point[p*stride:]
		id := idOf(int32(p))
		for e := 0; e < a; e++ {
			run += row[e]
			counts[e][id] = run
		}
	})
	return counts
}

// Window narrows the radius window [lo, hi) for a pair of subtrees whose
// element distances (in whatever unit the caller's schedule uses — plain
// for metric balls, squared for box bounds) all lie in [dmin, dmax]:
// radii below the returned from cannot reach any pair, and radii at and
// above the returned settled contain every pair, so the caller can credit
// them wholesale and recurse only on [from, settled). The thresholds are
// scanned linearly — the schedule is tiny (a ≤ ~15) and both predicates
// are monotone in the radius, so the scans stop early. The cross-joins of
// every backend classify through this one function; the self-joins
// predate it and keep the same two scans inlined in their hot visit
// loops — when changing the boundary semantics here, change them there
// too (kdtree/rtree/slimtree dualjoin.go).
func Window(radii []float64, dmin, dmax float64, lo, hi int) (from, settled int) {
	for lo < hi && dmin > radii[lo] {
		lo++ // the pair is fully separated at the smallest radii
	}
	nh := lo
	for nh < hi && dmax > radii[nh] {
		nh++ // radii [nh, hi) contain every pair: settle them at once
	}
	return lo, nh
}

// sqScratch pools the squared-radius schedules of AppendMultiCounts, so
// steady-state batched probes allocate nothing.
var sqScratch = sync.Pool{
	New: func() any { s := make([]float64, 0, 16); return &s },
}

// AppendMultiCounts is the difference-array scaffolding every backend's
// RangeCountMultiAppend shares: it appends len(radii)+1 zeroed slots to
// dst (the counts plus the difference array's sentinel), hands visit the
// schedule — squared through a pooled scratch slice when squared is true
// (the box-bound backends compare squared distances), the caller's own
// schedule otherwise — along with the difference row to credit,
// prefix-sums the row and returns dst trimmed to the counts. With a warm
// dst a probe allocates zero bytes. Centralizing this here keeps the
// credit/prefix-sum semantics from diverging across the backends.
func AppendMultiCounts(radii []float64, dst []int, squared bool, visit func(sched []float64, diff []int)) []int {
	a := len(radii)
	base := len(dst)
	for i := 0; i <= a; i++ {
		dst = append(dst, 0)
	}
	diff := dst[base:]
	if a > 0 {
		if squared {
			sp := sqScratch.Get().(*[]float64)
			r2 := (*sp)[:0]
			for _, r := range radii {
				r2 = append(r2, r*r)
			}
			visit(r2, diff)
			*sp = r2
			sqScratch.Put(sp)
		} else {
			visit(radii, diff)
		}
	}
	for e := 1; e < a; e++ {
		diff[e] += diff[e-1]
	}
	return dst[:base+a]
}

// SqMinMaxPointBox returns the smallest and largest SQUARED Euclidean
// distances from point q to the axis-aligned box [lo, hi]. The
// implementation lives in internal/kernel with the rest of the distance
// kernels; this wrapper (which inlines to a direct call) keeps the
// historical dualjoin API for callers outside the backends.
func SqMinMaxPointBox(q, lo, hi []float64) (smin, smax float64) {
	return kernel.SqMinMaxPointBox(q, lo, hi)
}

// SqMinMaxBoxBox returns the smallest and largest SQUARED Euclidean
// distances between any two points of the axis-aligned boxes [alo, ahi]
// and [blo, bhi]; see kernel.SqMinMaxBoxBox.
func SqMinMaxBoxBox(alo, ahi, blo, bhi []float64) (smin, smax float64) {
	return kernel.SqMinMaxBoxBox(alo, ahi, blo, bhi)
}

// SqBoxDiag is the squared diagonal of the box [lo, hi]; see
// kernel.SqBoxDiag.
func SqBoxDiag(lo, hi []float64) float64 {
	return kernel.SqBoxDiag(lo, hi)
}
