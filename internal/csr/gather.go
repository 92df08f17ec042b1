package csr

import (
	"fmt"
)

// pagePlan is the page arithmetic every page-granular CSR load shares:
// from a sequence of byte ranges whose both ends never decrease, it builds
// the ascending, distinct list of pages covering them and the bytes of
// each page the ranges use, with no map and no sort. Because the ranges
// ascend, the pages of one range are consecutive in the list, so a buffer
// holding the listed pages back to back serves each range as one
// contiguous slice (view). Demand loads and the prefetch planners build
// their page sets through it, so a page warmed is exactly a page loaded.
type pagePlan struct {
	ps    int64
	pages []int   // ascending, distinct
	used  []int32 // bytes of pages[k] the ranges cover
	first []int32 // per range: index in pages of its first page; -1 when empty
}

// planPages plans n byte ranges; rng(i) returns range i as [lo, hi). An
// empty range (hi <= lo) covers no page. A range that starts or ends
// before its predecessor is an error: the ranges come from ascending
// vertex lists, and the loads assume it.
func planPages(pageSize, n int, rng func(i int) (lo, hi int64)) (pagePlan, error) {
	ps := int64(pageSize)
	// First pass: count the distinct pages so every slice is allocated
	// once, at its final size.
	count, last := 0, int64(-1)
	var prevLo, prevHi int64
	for i := 0; i < n; i++ {
		lo, hi := rng(i)
		if hi <= lo {
			continue
		}
		if lo < prevLo || hi < prevHi {
			return pagePlan{}, fmt.Errorf("csr: byte range %d [%d, %d) precedes [%d, %d): vertices not ascending", i, lo, hi, prevLo, prevHi)
		}
		prevLo, prevHi = lo, hi
		p1 := (hi - 1) / ps
		count += int(p1 - max(lo/ps, last+1) + 1)
		last = p1
	}
	pp := pagePlan{
		ps:    ps,
		pages: make([]int, 0, count),
		used:  make([]int32, count),
		first: make([]int32, n),
	}
	last = -1
	for i := 0; i < n; i++ {
		lo, hi := rng(i)
		if hi <= lo {
			pp.first[i] = -1
			continue
		}
		p0, p1 := lo/ps, (hi-1)/ps
		for p := max(p0, last+1); p <= p1; p++ {
			pp.pages = append(pp.pages, int(p))
		}
		last = p1
		// Ranges ascend, so this range's pages p0..p1 are the list's tail.
		k := len(pp.pages) - 1 - int(p1-p0)
		pp.first[i] = int32(k)
		for p := p0; p <= p1; p++ {
			pLo, pHi := max(lo, p*ps), min(hi, (p+1)*ps)
			pp.used[k+int(p-p0)] += int32(pHi - pLo)
		}
	}
	return pp, nil
}

// view returns range i, which spans [lo, hi), within buf, which holds the
// planned pages back to back. Empty ranges return nil.
func (pp *pagePlan) view(buf []byte, i int, lo, hi int64) []byte {
	k := pp.first[i]
	if k < 0 {
		return nil
	}
	off := int64(k)*pp.ps + lo%pp.ps
	return buf[off : off+hi-lo]
}
