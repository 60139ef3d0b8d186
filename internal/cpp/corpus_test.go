package cpp_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/cheaders"
	"repro/internal/cpp"
	"repro/internal/suite"
)

// unit is one translation unit of the preprocessor corpus.
type unit struct{ name, src string }

// suiteCorpus is every program the paper's evaluation preprocesses: the
// Juliet-style suite, the own suite and the torture programs (797 units).
func suiteCorpus() []unit {
	var us []unit
	for _, s := range []*suite.Suite{suite.Juliet(), suite.Own()} {
		for _, c := range s.Cases {
			us = append(us, unit{c.Name + ".c", c.Source})
		}
	}
	for _, c := range suite.Torture() {
		us = append(us, unit{c.Name + ".c", c.Source})
	}
	return us
}

// fuzzCorpus is FuzzCPP's seeds: the f.Add list and the files under
// testdata/fuzz/FuzzCPP.
func fuzzCorpus(t testing.TB) []unit {
	var us []unit
	for i, s := range fuzzSeeds {
		us = append(us, unit{fmt.Sprintf("seed%d.c", i), s})
	}
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzCPP", "*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(b)), "\n")
		arg := strings.TrimSuffix(strings.TrimPrefix(lines[len(lines)-1], "string("), ")")
		src, err := strconv.Unquote(arg)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		us = append(us, unit{filepath.Base(f) + ".c", src})
	}
	return us
}

// corpusResolver is the include path the driver and the benchmark use.
func corpusResolver() cpp.Resolver {
	return cpp.ChainResolver{cheaders.Resolver(), cpp.FSResolver{}}
}

// result is one unit's output and error text.
type result struct{ out, err string }

func preprocess(u unit, r cpp.Resolver) result {
	out, err := cpp.New(r).Run(u.src, u.name)
	if err != nil {
		return result{out, err.Error()}
	}
	return result{out: out}
}

// corpusHash is the SHA-256 of the length-prefixed name, output and error
// of every unit, in order.
func corpusHash(us []unit, rs []result) string {
	h := sha256.New()
	for i, u := range us {
		fmt.Fprintf(h, "%d:%s%d:%s%d:%s", len(u.name), u.name, len(rs[i].out), rs[i].out, len(rs[i].err), rs[i].err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestCorpusGolden pins the preprocessor's output and errors over the
// whole corpus to testdata/corpus.sha256, which was recorded before the
// run-stack worklist and the shared header tokens: a change to either must
// not move one byte.
func TestCorpusGolden(t *testing.T) {
	us := append(suiteCorpus(), fuzzCorpus(t)...)
	r := corpusResolver()
	rs := make([]result, len(us))
	for i, u := range us {
		rs[i] = preprocess(u, r)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "corpus.sha256"))
	if err != nil {
		t.Fatal(err)
	}
	if got := corpusHash(us, rs); got != strings.TrimSpace(string(want)) {
		t.Errorf("corpus hash over %d units = %s, want %s", len(us), got, strings.TrimSpace(string(want)))
	}
}

// TestCorpusConcurrent preprocesses the corpus on 8 goroutines that share
// one resolver and requires every output to be byte-identical to the
// sequential run: the header tokens the resolver serves are shared
// read-only, and nothing may write through them.
func TestCorpusConcurrent(t *testing.T) {
	us := append(suiteCorpus(), fuzzCorpus(t)...)
	r := corpusResolver()
	want := make([]result, len(us))
	for i, u := range us {
		want[i] = preprocess(u, r)
	}
	const workers = 8
	got := make([][]result, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		got[w] = make([]result, len(us))
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each worker starts at a different unit so that the same
			// header is expanded by several goroutines at once.
			for k := range us {
				i := (k + w*len(us)/workers) % len(us)
				got[w][i] = preprocess(us[i], r)
			}
		}(w)
	}
	wg.Wait()
	for w := range got {
		for i := range us {
			if got[w][i] != want[i] {
				t.Fatalf("worker %d, unit %s: concurrent output differs from sequential", w, us[i].name)
			}
		}
	}
}

// julietUnit is shaped like a Juliet case that pulls in the three headers
// most of the suite includes.
const julietUnit = `#include <stdio.h>
#include <stdlib.h>
#include <string.h>

#define BUF 16

static void work(void) {
	char *p = malloc(BUF);
	if (p == NULL) {
		exit(EXIT_FAILURE);
	}
	memset(p, 0, BUF);
	strcpy(p, "undefined");
	printf("%s %d\n", p, (int)strlen(p));
	free(p);
}

int main(void) {
	work();
	return 0;
}
`

var sink string

// BenchmarkPreprocess is the cpp layer benchmark: one op preprocesses the
// 797 units of the Juliet, own and torture suites through the include
// path the driver uses.
func BenchmarkPreprocess(b *testing.B) {
	us := suiteCorpus()
	r := corpusResolver()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, u := range us {
			out, err := cpp.New(r).Run(u.src, u.name)
			if err != nil {
				b.Fatal(err)
			}
			sink = out
		}
	}
}

// maxPreprocessAllocs is the ceiling for preprocessing julietUnit: 59
// allocations measured with Go 1.24 on linux/amd64 (822 when every include
// rescanned and spliced its header), plus 10% for map growth that differs
// between Go releases.
const maxPreprocessAllocs = 65

// TestPreprocessAllocs gates the allocations of one Juliet-shaped unit:
// the headers' tokens are shared, the worklist splices nothing, and
// expansion appends into buffers it owns.
func TestPreprocessAllocs(t *testing.T) {
	r := corpusResolver()
	got := testing.AllocsPerRun(20, func() {
		out, err := cpp.New(r).Run(julietUnit, "juliet.c")
		if err != nil {
			t.Fatal(err)
		}
		sink = out
	})
	if got > maxPreprocessAllocs {
		t.Errorf("preprocessing a Juliet-shaped unit: %.0f allocs, ceiling %d", got, maxPreprocessAllocs)
	}
}
