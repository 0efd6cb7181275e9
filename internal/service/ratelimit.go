package service

import (
	"sync"
	"time"
)

// rateLimiter is a token bucket: Allow spends one token if available,
// refilled continuously at rate tokens/second up to burst. Single
// bucket; the Server keeps one per client.
type rateLimiter struct {
	mu     sync.Mutex
	rate   float64 // tokens per second
	burst  float64
	tokens float64
	last   time.Time
}

func newRateLimiter(rate, burst float64, now time.Time) *rateLimiter {
	return &rateLimiter{rate: rate, burst: burst, tokens: burst, last: now}
}

// allow spends one token when the bucket has one, refilling for the
// elapsed time first. When it refuses, retryAfter is how long until a
// token will exist.
func (l *rateLimiter) allow(now time.Time) (ok bool, retryAfter time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if dt := now.Sub(l.last).Seconds(); dt > 0 {
		l.tokens += dt * l.rate
		if l.tokens > l.burst {
			l.tokens = l.burst
		}
	}
	l.last = now
	if l.tokens >= 1 {
		l.tokens--
		return true, 0
	}
	need := (1 - l.tokens) / l.rate
	return false, time.Duration(need * float64(time.Second))
}
