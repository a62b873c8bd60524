package coherence

import "repro/internal/gaddr"

// Sharers reports the home-side sharer mask for a page (testing aid).
func (e *Engine) Sharers(p gaddr.PageID) uint64 {
	d := e.dirs[p.Proc()]
	if pd := d.pages[p]; pd != nil {
		return pd.sharers
	}
	return 0
}

// Stamp reports the home-side timestamp for a page (testing aid).
func (e *Engine) Stamp(p gaddr.PageID) uint32 {
	d := e.dirs[p.Proc()]
	if pd := d.pages[p]; pd != nil {
		return pd.stamp
	}
	return 0
}
