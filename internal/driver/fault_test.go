package driver

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/sema"
)

func TestCompileContainsPanic(t *testing.T) {
	in := fault.NewInjector(0, fault.Rule{Site: SiteCompile, Kind: fault.KindPanic, Msg: "frontend blew up"})
	_, err := Compile(cacheTestSrc, "t.c", Options{Injector: in})
	ie, ok := fault.AsInternal(err)
	if !ok {
		t.Fatalf("err = %v, want contained InternalError", err)
	}
	if ie.Stage != fault.StageCompile || ie.Unit != "t.c" {
		t.Errorf("fault = %+v, want stage compile, unit t.c", ie)
	}
	if !strings.Contains(ie.Value, "frontend blew up") || ie.Stack == "" {
		t.Errorf("fault did not capture panic value and stack: %+v", ie)
	}
}

func TestCacheDoesNotCacheNondeterministicErrors(t *testing.T) {
	// One transient error, then clean compiles: the failure must not stick.
	in := fault.NewInjector(0, fault.Rule{Site: SiteCompile, Kind: fault.KindTransient, Count: 1})
	c := NewCache()
	opts := Options{Injector: in}
	if _, err := c.Compile(cacheTestSrc, "t.c", opts); !fault.IsTransient(err) {
		t.Fatalf("first compile err = %v, want transient", err)
	}
	prog, err := c.Compile(cacheTestSrc, "t.c", opts)
	if err != nil || prog == nil {
		t.Fatalf("compile after transient failure: %v (error was cached)", err)
	}
	st := c.Stats()
	if st.Misses != 2 || st.Evictions != 1 {
		t.Errorf("stats = %d misses / %d evictions, want 2/1", st.Misses, st.Evictions)
	}

	// Contained panics must not stick either.
	in2 := fault.NewInjector(0, fault.Rule{Site: SiteCompile, Kind: fault.KindPanic, Count: 1})
	c2 := NewCache()
	opts2 := Options{Injector: in2}
	if _, err := c2.Compile(cacheTestSrc, "t.c", opts2); err == nil {
		t.Fatal("injected panic produced no error")
	}
	if _, err := c2.Compile(cacheTestSrc, "t.c", opts2); err != nil {
		t.Fatalf("compile after contained panic: %v (fault was cached)", err)
	}
}

// gateResolver serves one include. Its first Resolve blocks until release
// closes and then panics; every later call answers normally.
type gateResolver struct {
	calls   atomic.Int32
	entered chan struct{}
	release chan struct{}
}

func (g *gateResolver) Resolve(name string, system bool, fromDir string) (string, string, error) {
	if g.calls.Add(1) == 1 {
		close(g.entered)
		<-g.release
		panic("leader's frontend blew up")
	}
	return "#define GATE 4\n", name, nil
}

// TestCacheFollowersDoNotShareContainedPanic parks n followers on a
// leader whose frontend pass panics. The contained panic belongs to the
// leader's attempt, not to the translation unit: exactly one caller may
// see it, and every follower must get the program from a fresh pass.
func TestCacheFollowersDoNotShareContainedPanic(t *testing.T) {
	const n = 16
	src := "#include \"gate.h\"\nint main(void) { return GATE - 4; }\n"
	g := &gateResolver{entered: make(chan struct{}), release: make(chan struct{})}
	c := NewCache()
	opts := Options{Includes: g}

	type result struct {
		prog *sema.Program
		err  error
	}
	results := make(chan result, n+1)
	call := func() {
		p, err := c.Compile(src, "gate.c", opts)
		results <- result{p, err}
	}
	go call()
	<-g.entered // the leader is inside its frontend pass
	for i := 0; i < n; i++ {
		go call()
	}
	for deadline := time.Now().Add(10 * time.Second); c.Stats().Waits < n; {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d followers parked on the leader", c.Stats().Waits, n)
		}
		time.Sleep(time.Millisecond)
	}
	close(g.release)

	var progs []*sema.Program
	internal := 0
	for i := 0; i < n+1; i++ {
		r := <-results
		switch _, ok := fault.AsInternal(r.err); {
		case ok:
			internal++
		case r.err != nil:
			t.Errorf("unexpected error: %v", r.err)
		default:
			progs = append(progs, r.prog)
		}
	}
	if internal != 1 || len(progs) != n {
		t.Fatalf("%d callers saw the contained panic and %d got the program, want 1 and %d", internal, len(progs), n)
	}
	for _, p := range progs[1:] {
		if p != progs[0] {
			t.Fatal("followers got different programs: the retry was not single-flighted")
		}
	}
	if st := c.Stats(); st.Misses != 2 || st.Compiles != st.Misses || st.Evictions != 1 {
		t.Errorf("stats = %+v, want 2 misses (the panicking pass and one retry), compiles == misses, 1 eviction", st)
	}
}
