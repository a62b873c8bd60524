package perimeter

import "testing"

// TestAlgorithmMatchesRaster validates Samet's algorithm against a direct
// raster count at several image sizes.
func TestAlgorithmMatchesRaster(t *testing.T) {
	for _, n := range []int{8, 16, 32, 64, 128, 256} {
		im := makeImage(n)
		want := rasterPerimeter(im)
		got := int(reference(n))
		if got != want {
			t.Errorf("n=%d: quadtree perimeter %d != raster %d", n, got, want)
		}
	}
}

// rasterPerimeter computes the same perimeter directly from the raster:
// every black cell contributes one unit per side facing a white cell or
// the border.
func rasterPerimeter(im image) int {
	total := 0
	for y := 0; y < im.n; y++ {
		for x := 0; x < im.n; x++ {
			if !im.cellBlack(x, y) {
				continue
			}
			for _, d := range [4][2]int{{0, -1}, {0, 1}, {-1, 0}, {1, 0}} {
				nx, ny := x+d[0], y+d[1]
				if nx < 0 || ny < 0 || nx >= im.n || ny >= im.n || !im.cellBlack(nx, ny) {
					total++
				}
			}
		}
	}
	return total
}
