package main

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/suite"
)

// The benchmark's inputs. Every workload draws them from its seed alone:
// the same seed gives byte-identical sources, and the program only ever
// sees the generated text. Sizes are stratified rather than sampled, so
// two seeds carry the same amount of work and differ in order, names and
// constants.

const (
	maxPad  = 200 // synthetic functions padded onto a unique request
	hotSize = 32  // programs in the serve-hot working set
)

type inputs struct {
	seed int64

	// regen: the ubsuite -coverage corpus in a seeded case order.
	juliet, own *suite.Suite
	torture     []suite.TortureCase

	// serve-unique and serve-hot: base programs (Juliet and own-suite
	// cases) that requests are built from.
	bases    []suite.Case
	padOrder []int // a seeded permutation of 0..maxPad
	hot      []request

	// explore: order-sensitive programs, one per size of each shape.
	explore []exploreProg
}

// request is one /v1/analyze submission.
type request struct {
	source, file string
	base         int // index into inputs.bases
}

type exploreProg struct {
	name, source string
	por, dedup   bool
}

func newInputs(seed int64) *inputs {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{seed: seed}

	j, o := suite.Juliet(), suite.Own()
	in.juliet = &suite.Suite{Name: j.Name, Cases: shuffled(rng, j.Cases)}
	in.own = &suite.Suite{Name: o.Name, Cases: shuffled(rng, o.Cases)}
	in.torture = shuffled(rng, suite.Torture())

	in.bases = shuffled(rng, append(append([]suite.Case{}, j.Cases...), o.Cases...))
	in.padOrder = rng.Perm(maxPad + 1)
	for k, b := range rng.Perm(len(in.bases))[:hotSize] {
		in.hot = append(in.hot, request{
			source: fmt.Sprintf("/* hot %d.%d */\n%s", seed, k, in.bases[b].Source),
			file:   in.bases[b].Name + ".c",
			base:   b,
		})
	}
	in.explore = exploreCorpus(rng)
	return in
}

func shuffled[T any](rng *rand.Rand, xs []T) []T {
	out := make([]T, len(xs))
	for i, p := range rng.Perm(len(xs)) {
		out[i] = xs[p]
	}
	return out
}

// unique returns the i-th serve-unique request: a base program behind a
// tag no other request carries (so it misses the compile cache and the
// coalescer) and 0–200 synthetic functions (so translation-unit size
// varies). Request i of a seed is always the same text.
func (in *inputs) unique(i int) request {
	b := i % len(in.bases)
	pad := in.padOrder[i%len(in.padOrder)]
	rng := rand.New(rand.NewSource(in.seed*1_000_003 + int64(i)))
	var sb strings.Builder
	fmt.Fprintf(&sb, "/* unique %d.%d */\n", in.seed, i)
	for f := 0; f < pad; f++ {
		writePadFunc(&sb, rng, f)
	}
	sb.WriteString(in.bases[b].Source)
	return request{source: sb.String(), file: in.bases[b].Name + ".c", base: b}
}

// writePadFunc emits one never-called, well-defined function.
func writePadFunc(sb *strings.Builder, rng *rand.Rand, f int) {
	c := rng.Intn(97) + 1
	switch rng.Intn(4) {
	case 0:
		fmt.Fprintf(sb, "static int pbpad_%d(int x) { return x + %d; }\n", f, c)
	case 1:
		fmt.Fprintf(sb, "static int pbpad_%d(int n) {\n\tint s = 0;\n\tfor (int k = 0; k < n; k++)\n\t\ts += k * %d;\n\treturn s;\n}\n", f, c)
	case 2:
		fmt.Fprintf(sb, "static long pbpad_%d(long a, long b) {\n\tif (a > b)\n\t\treturn a - b;\n\treturn b - a + %d;\n}\n", f, c)
	default:
		fmt.Fprintf(sb, "struct pbpad_s%d { int a; double b; };\nstatic double pbpad_%d(struct pbpad_s%d *p) { return p->a * %d + p->b; }\n", f, f, f, c)
	}
}

// exploreCorpus builds the explore workload's programs: one per size of
// each order-sensitive shape, so every seed has the same mix.
func exploreCorpus(rng *rand.Rand) []exploreProg {
	var out []exploreProg
	// k conflicting calls: every call writes the same global, so the
	// orders of the calls never commute and none of them is pruned; the
	// exit code is the last writer's value.
	for k := 2; k <= 4; k++ {
		digits := rng.Perm(9)
		var terms []string
		for t := 0; t < k; t++ {
			terms = append(terms, fmt.Sprintf("put(%d)", digits[t]+1))
		}
		src := fmt.Sprintf("int acc;\nint put(int v) { return acc = v; }\nint main(void) {\n\t%s;\n\treturn acc;\n}\n",
			strings.Join(terms, " + "))
		out = append(out, exploreProg{name: fmt.Sprintf("conflict_%d", k), source: src, por: true})
	}
	// Commuting nests: each operand writes its own global, so partial-order
	// reduction keeps one order of every choice point.
	for m := 3; m <= 5; m++ {
		var decls, terms []string
		for t := 0; t < m; t++ {
			decls = append(decls, fmt.Sprintf("g%d", t))
			terms = append(terms, fmt.Sprintf("(g%d = %d)", t, rng.Intn(5)+1))
		}
		src := fmt.Sprintf("int %s;\nint main(void) {\n\treturn %s;\n}\n",
			strings.Join(decls, ", "), strings.Join(terms, " + "))
		out = append(out, exploreProg{name: fmt.Sprintf("nest_%d", m), source: src, por: true})
	}
	// Back-to-back commuting statements: every order of a statement ends
	// in the same state, which state dedup collapses at the next one.
	for n := 2; n <= 5; n++ {
		var decls, stmts []string
		for t := 0; t < n; t++ {
			decls = append(decls, fmt.Sprintf("p%d = %d, q%d = %d, s%d", t, rng.Intn(7)+1, t, rng.Intn(7)+1, t))
			stmts = append(stmts, fmt.Sprintf("\ts%d = p%d + q%d;", t, t, t))
		}
		src := fmt.Sprintf("int %s;\nint main(void) {\n%s\n\treturn s%d;\n}\n",
			strings.Join(decls, ", "), strings.Join(stmts, "\n"), n-1)
		out = append(out, exploreProg{name: fmt.Sprintf("stmts_%d", n), source: src, dedup: true})
	}
	// The four programs undefbench -explore drives, with seeded constants.
	d := rng.Intn(8) + 2
	out = append(out,
		exploreProg{name: "setdenom", por: true, source: fmt.Sprintf(`
int d = %d;
int setDenom(int x) { return d = x; }
int main(void) { return (10/d) + setDenom(0); }
`, d)},
		exploreProg{name: "unseq", por: true, source: fmt.Sprintf(`
int main(void) {
	int x = %d;
	return x + x++;
}
`, rng.Intn(9)+1)},
		exploreProg{name: "order_calls", por: true, source: fmt.Sprintf(`
int x = %d;
int bump(void) { return ++x; }
int twice(void) { return x * 2; }
int main(void) { return bump() + twice(); }
`, rng.Intn(9))},
		exploreProg{name: "commuting_nest", por: true, source: fmt.Sprintf(`
int a, b, c, d2;
int main(void) {
	return (a = %d) + (b = 1) + (c = 1) + (d2 = 1);
}
`, rng.Intn(9)+1)},
	)
	return out
}
