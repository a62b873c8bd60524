package rt

import "repro/internal/gaddr"

// RawLoadPtr reads a global-pointer field without charging anything.
func (r *Runtime) RawLoadPtr(g gaddr.GP, off uint32) gaddr.GP {
	return gaddr.GP(r.RawLoad(g, off))
}
