package obs

import (
	"sync"
	"time"

	"bcpqp/internal/metrics"
	"bcpqp/internal/units"
)

// meterWindow is the RateMeter granularity: the paper's §6.1 measurement
// window.
const meterWindow = metrics.DefaultWindow

// RateMeter is a windowed throughput meter over a long-running monotonic
// clock. It keeps two slots — the current window's bytes and the previous
// window's — so its memory and per-Add cost are constant however long it
// runs, and history older than one window is forgotten (which is exactly
// what a runtime gauge wants).
//
// It is safe for one writer and any number of readers; the expected shape
// is one Add per enforced run on a shard goroutine and occasional reads
// from the metrics exporter. The zero value is ready to use.
type RateMeter struct {
	mu    sync.Mutex
	begun bool  // the first Add has fixed win
	full  bool  // window win-1 lies within the meter's life
	win   int64 // index of the current window
	cur   int64 // bytes in window win
	prev  int64 // bytes in window win-1
	total int64
}

// Add records bytes at monotonic time now. A time regression counts toward
// the current window.
func (r *RateMeter) Add(now time.Duration, bytes int) {
	w := int64(now / meterWindow)
	r.mu.Lock()
	defer r.mu.Unlock()
	switch {
	case !r.begun:
		r.begun, r.win = true, w
	case w == r.win+1:
		r.full, r.win, r.prev, r.cur = true, w, r.cur, 0
	case w > r.win+1:
		r.full, r.win, r.prev, r.cur = true, w, 0, 0
	}
	r.cur += int64(bytes)
	r.total += int64(bytes)
}

// Rate returns the throughput over the most recent completed window, or
// over the current partial window when it is the meter's first. An unused
// meter reports zero (never NaN).
func (r *RateMeter) Rate() units.Rate {
	r.mu.Lock()
	b := r.cur
	if r.full {
		b = r.prev
	}
	r.mu.Unlock()
	return units.Rate(float64(b) * 8 / meterWindow.Seconds())
}

// Total returns all bytes ever recorded.
func (r *RateMeter) Total() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}
