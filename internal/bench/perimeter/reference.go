// Package perimeter implements the Perimeter benchmark: computing the
// perimeter of a quad-tree encoded raster image (paper Table 1: 4K×4K
// image) with Samet's algorithm — for every black leaf, locate the
// equal-or-greater-size neighbor in each direction through parent pointers
// and total the exposed boundary against white regions.
//
// Heuristic choice (Table 2: M+C): the quadrant recursion migrates (four
// child updates or-combine above the threshold); the neighbor finding
// caches — Perimeter is one of the three benchmarks with explicit
// path-affinity hints, marking the parent pointers low-affinity because
// "the neighbors of a quadrant may be far away in the tree".
package perimeter

// Colors.
const (
	white = 0
	black = 1
	grey  = 2
)

// Quadrants and directions.
const (
	nw = 0
	ne = 1
	sw = 2
	se = 3

	north = 0
	east  = 1
	south = 2
	west  = 3
)

// adjacent reports whether quadrant q touches side dir of its parent.
func adjacent(dir, q int) bool {
	switch dir {
	case north:
		return q == nw || q == ne
	case south:
		return q == sw || q == se
	case east:
		return q == ne || q == se
	default: // west
		return q == nw || q == sw
	}
}

// reflect mirrors a quadrant across the axis of dir.
func reflect(dir, q int) int {
	if dir == north || dir == south {
		switch q {
		case nw:
			return sw
		case sw:
			return nw
		case ne:
			return se
		default:
			return ne
		}
	}
	switch q {
	case nw:
		return ne
	case ne:
		return nw
	case sw:
		return se
	default:
		return sw
	}
}

// sideQuadrants returns the two quadrants of a neighbor that touch the
// black node (i.e. the quadrants adjacent to the opposite side).
func sideQuadrants(dir int) (int, int) {
	switch dir {
	case north:
		return sw, se
	case south:
		return nw, ne
	case east:
		return nw, sw
	default: // west
		return ne, se
	}
}

// image is the deterministic test picture: a disc.
type image struct {
	n      int // image is n×n cells
	cx, cy float64
	r2     float64
}

func makeImage(n int) image {
	return image{n: n, cx: float64(n) * 0.5, cy: float64(n) * 0.45, r2: float64(n) * float64(n) * 0.14}
}

func (im image) cellBlack(x, y int) bool {
	dx := float64(x) + 0.5 - im.cx
	dy := float64(y) + 0.5 - im.cy
	return dx*dx+dy*dy <= im.r2
}

// regionColor classifies the square region [x,x+size)×[y,y+size):
// white/black if uniform, grey otherwise. Exact for a disc: all cell
// centers inside ⇔ the farthest cell center is inside; all outside ⇔ the
// nearest point of the center grid is outside.
func (im image) regionColor(x, y, size int) int {
	if size == 1 {
		if im.cellBlack(x, y) {
			return black
		}
		return white
	}
	// Cell centers span [x+0.5, x+size-0.5] in each axis.
	lo := func(c float64, a, b float64) float64 {
		// distance from c to interval [a,b]
		if c < a {
			return a - c
		}
		if c > b {
			return c - b
		}
		return 0
	}
	ax, bx := float64(x)+0.5, float64(x+size)-0.5
	ay, by := float64(y)+0.5, float64(y+size)-0.5
	ndx, ndy := lo(im.cx, ax, bx), lo(im.cy, ay, by)
	if ndx*ndx+ndy*ndy > im.r2 {
		return white
	}
	hi := func(c float64, a, b float64) float64 {
		d1, d2 := c-a, b-c
		if d1 < 0 {
			d1 = -d1
		}
		if d2 < 0 {
			d2 = -d2
		}
		if d1 > d2 {
			return d1
		}
		return d2
	}
	fdx, fdy := hi(im.cx, ax, bx), hi(im.cy, ay, by)
	if fdx*fdx+fdy*fdy <= im.r2 {
		return black
	}
	return grey
}

// refNode is the plain-Go quadtree node.
type refNode struct {
	color     int
	childType int
	parent    *refNode
	child     [4]*refNode
}

// quadXY gives a quadrant's offset within a square of the given size:
// quadrant rows are north = low y.
func quadXY(q, size int) (int, int) {
	half := size / 2
	switch q {
	case nw:
		return 0, 0
	case ne:
		return half, 0
	case sw:
		return 0, half
	default:
		return half, half
	}
}

// refBuild builds the quadtree for the region.
func refBuild(im image, x, y, size int, parent *refNode, childType int) *refNode {
	c := im.regionColor(x, y, size)
	n := &refNode{color: c, childType: childType, parent: parent}
	if c == grey {
		for q := 0; q < 4; q++ {
			dx, dy := quadXY(q, size)
			n.child[q] = refBuild(im, x+dx, y+dy, size/2, n, q)
		}
	}
	return n
}

// refNeighbor is gtequal_adj_neighbor: the equal-or-greater-size neighbor
// of node in direction dir, or nil at the image border.
func refNeighbor(node *refNode, dir int) *refNode {
	var q *refNode
	if node.parent != nil && adjacent(dir, node.childType) {
		q = refNeighbor(node.parent, dir)
	} else {
		q = node.parent
	}
	if q != nil && q.color == grey {
		return q.child[reflect(dir, node.childType)]
	}
	return q
}

// refSumAdjacent totals the white boundary inside a grey neighbor along
// the shared side.
func refSumAdjacent(q *refNode, q1, q2, size int) int {
	if q.color == grey {
		return refSumAdjacent(q.child[q1], q1, q2, size/2) +
			refSumAdjacent(q.child[q2], q1, q2, size/2)
	}
	if q.color == white {
		return size
	}
	return 0
}

// refPerimeter is Samet's algorithm.
func refPerimeter(t *refNode, size int) int {
	if t.color == grey {
		total := 0
		for q := 0; q < 4; q++ {
			total += refPerimeter(t.child[q], size/2)
		}
		return total
	}
	if t.color != black {
		return 0
	}
	total := 0
	for dir := 0; dir < 4; dir++ {
		nb := refNeighbor(t, dir)
		switch {
		case nb == nil:
			total += size
		case nb.color == white:
			total += size
		case nb.color == grey:
			q1, q2 := sideQuadrants(dir)
			total += refSumAdjacent(nb, q1, q2, size)
		}
	}
	return total
}

// reference builds the tree and computes the perimeter in plain Go.
func reference(n int) uint64 {
	im := makeImage(n)
	root := refBuild(im, 0, 0, n, nil, 0)
	return uint64(refPerimeter(root, n))
}
