package driver

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/ctypes"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sema"
)

// Cache is a concurrency-safe compile cache with single-flight
// deduplication: concurrent callers compiling the same translation unit
// block on one frontend pass and share the resulting immutable
// *sema.Program (see the immutability contract on sema.Program).
//
// Entries are keyed by (source hash, model, defines). The source hash
// covers the file name too, since diagnostics embed it. Deterministic
// compile failures (bad C) are cached as well — within one cache lifetime
// a broken translation unit is compiled (and fails) exactly once, no
// matter how many tools ask for it. Non-deterministic failures — contained
// panics, injected transients, context cancellation — are NOT cached, nor
// shared with callers already waiting on the failed pass: either would pin
// a spurious error onto a translation unit that would compile fine on
// retry. Options.Includes is NOT part of the key:
// callers must use a consistent include resolver for the lifetime of a
// cache.
type Cache struct {
	mu      sync.Mutex
	entries map[cacheKey]*cacheEntry

	// Counters, guarded by mu. A lookup that finds an entry counts as a
	// hit even when the compile is still in flight (the caller shares it
	// rather than redoing it, which is the point); a hit on a still-compiling
	// entry additionally counts as a single-flight wait.
	hits, misses, errors int64
	waits                int64
	evictions            int64
	compileTime          time.Duration

	// observer, when set, receives EvCacheHit/EvCacheMiss per lookup.
	observer obs.Observer
}

// SetObserver attaches an observer to the cache: every lookup emits an
// EvCacheHit or EvCacheMiss event named after the translation unit. Set it
// before sharing the cache across goroutines.
func (c *Cache) SetObserver(o obs.Observer) {
	c.mu.Lock()
	c.observer = o
	c.mu.Unlock()
}

type cacheKey struct {
	srcHash [sha256.Size]byte
	model   ctypes.Model
	defines string
}

type cacheEntry struct {
	done chan struct{} // closed when prog/err are set
	prog *sema.Program
	err  error
}

// NewCache returns an empty compile cache.
func NewCache() *Cache {
	return &Cache{entries: make(map[cacheKey]*cacheEntry)}
}

// CacheStats is a snapshot of a cache's counters. It is the only way to
// read them: the live fields stay unexported behind the cache mutex, so a
// monitoring goroutine polling a cache shared with a -j worker pool is
// race-free by construction (asserted by TestCacheStatsConcurrent under
// -race). The snapshot serializes directly into /metrics responses.
type CacheStats struct {
	Hits   int64 `json:"hits"`   // lookups served from an existing (possibly in-flight) entry
	Misses int64 `json:"misses"` // lookups that triggered a frontend pass
	Errors int64 `json:"errors"` // misses whose compile failed (each failure counted once)
	// Waits counts single-flight waits: hits that found the entry still
	// compiling and blocked on the in-flight frontend pass instead of
	// starting their own.
	Waits int64 `json:"waits"`
	// Evictions counts entries dropped from the cache: non-cacheable
	// failures (transient, contained panic, cancellation) plus explicit
	// Invalidate calls.
	Evictions int64 `json:"evictions"`
	// CompileTime is the total wall time spent inside frontend passes
	// (preprocess, parse, typecheck) on misses; waiting on another
	// caller's compile is free.
	CompileTime time.Duration `json:"compile_time_ns"`
	// Compiles counts frontend passes. Every miss runs exactly one, so it
	// always equals Misses; it is kept as the divisor of CompileTime.
	Compiles int64 `json:"compiles"`
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses, Errors: c.errors, Waits: c.waits, Evictions: c.evictions, CompileTime: c.compileTime, Compiles: c.misses}
}

// Len reports the number of cached translation units (including failures
// and in-flight compiles).
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Compile is the caching equivalent of the package-level Compile: the
// first caller for a key runs the frontend; concurrent and later callers
// share its result.
func (c *Cache) Compile(src, file string, opts Options) (*sema.Program, error) {
	return c.CompileCtx(context.Background(), src, file, opts)
}

// CompileCtx is Compile with a trace context: when ctx carries a span
// collector (obs.WithTrace), the lookup is bracketed by a "compile" span
// annotated with the file and whether it was served from cache. The
// context does NOT cancel the compile itself — a frontend pass is shared
// by every caller waiting on the key, so it must not die with the first
// caller's request.
func (c *Cache) CompileCtx(ctx context.Context, src, file string, opts Options) (*sema.Program, error) {
	_, sp := obs.StartSpan(ctx, "compile")
	prog, err, how := c.compile(src, file, opts)
	if sp.Recording() {
		sp.SetAttr("file", file)
		sp.SetAttr("cache", how)
		if err != nil {
			sp.SetAttr("error", err.Error())
		}
		sp.End()
	}
	return prog, err
}

// compile reports in its third return whether the result was served
// from an existing entry ("hit") or by running the frontend ("miss").
//
// A follower whose leader ended in an error that must not be cached (a
// contained panic, an injected transient, a cancellation) does not share
// it: that error belongs to the leader's attempt, not to the translation
// unit. The leader evicts such an entry before waking its followers, so
// each of them looks the key up again and either waits on the next leader
// or becomes it and returns its own result. Exactly one caller therefore
// sees each non-deterministic failure, whatever the concurrency.
func (c *Cache) compile(src, file string, opts Options) (*sema.Program, error, string) {
	k := makeKey(src, file, opts)
	for {
		c.mu.Lock()
		e, ok := c.entries[k]
		if !ok {
			break // c.mu stays held: this caller leads
		}
		c.hits++
		select {
		case <-e.done:
		default:
			c.waits++
		}
		o := c.observer
		c.mu.Unlock()
		if o != nil {
			o.Event(&obs.Event{Kind: obs.EvCacheHit, Name: file})
		}
		<-e.done
		if e.err == nil || cacheable(e.err) {
			return e.prog, e.err, "hit"
		}
	}
	e := &cacheEntry{done: make(chan struct{})}
	c.entries[k] = e
	c.misses++
	o := c.observer
	c.mu.Unlock()
	if o != nil {
		o.Event(&obs.Event{Kind: obs.EvCacheMiss, Name: file})
	}

	start := time.Now()
	e.prog, e.err = Compile(src, file, opts)
	elapsed := time.Since(start)

	c.mu.Lock()
	c.compileTime += elapsed
	if e.err != nil {
		c.errors++
		if !cacheable(e.err) {
			// Invalidate never removes an in-flight entry, so k still
			// maps to e.
			delete(c.entries, k)
			c.evictions++
		}
	}
	c.mu.Unlock()
	close(e.done)
	return e.prog, e.err, "miss"
}

// cacheable reports whether a compile error is deterministic — a property
// of the translation unit rather than of this particular attempt.
func cacheable(err error) bool {
	if fault.IsTransient(err) {
		return false
	}
	if _, ok := fault.AsInternal(err); ok {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	return true
}

// Invalidate drops the cache entry for (src, file, opts) so the next
// Compile reruns the frontend. In-flight entries are left alone — evicting
// one would let two compiles for the same key race. It reports whether an
// entry was removed; the runner's retry path calls this before retrying a
// transient failure.
func (c *Cache) Invalidate(src, file string, opts Options) bool {
	k := makeKey(src, file, opts)
	c.mu.Lock()
	e, ok := c.entries[k]
	if !ok {
		c.mu.Unlock()
		return false
	}
	select {
	case <-e.done:
	default:
		c.mu.Unlock()
		return false // still compiling
	}
	delete(c.entries, k)
	c.evictions++
	c.mu.Unlock()
	return true
}

// SourceKey renders the cache identity of (src, file, opts) — the key
// under which the cache single-flights compiles — as an opaque hex string.
// Servers reuse it to coalesce whole analysis requests: two requests with
// equal SourceKeys are guaranteed to share one cached frontend pass, so
// sharing the run too is sound as long as the remaining knobs (tool,
// budget, timeout) are folded into the request key by the caller.
func SourceKey(src, file string, opts Options) string {
	k := makeKey(src, file, opts)
	h := sha256.New()
	h.Write(k.srcHash[:])
	fmt.Fprintf(h, "|%+v|%s", k.model, k.defines)
	return hex.EncodeToString(h.Sum(nil))
}

func makeKey(src, file string, opts Options) cacheKey {
	h := sha256.New()
	h.Write([]byte(file))
	h.Write([]byte{0})
	h.Write([]byte(src))
	var k cacheKey
	h.Sum(k.srcHash[:0])
	model := opts.Model
	if model == nil {
		model = ctypes.LP64()
	}
	k.model = *model
	k.defines = strings.Join(opts.Defines, "\x1f")
	return k
}
