package driver

import (
	"testing"

	"repro/internal/interp"
)

// headersOnlyUnit is the smallest unit that pays for the three headers a
// Juliet case includes: every allocation past the 63 of an empty main is
// the headers' declarations being lexed, parsed and type-checked.
const headersOnlyUnit = `#include <stdio.h>
#include <stdlib.h>
#include <string.h>

int main(void){return 0;}
`

// maxHeadersOnlyAllocs is the ceiling for compiling headersOnlyUnit: 1,294
// allocations measured with Go 1.24 on linux/amd64 (1,302 before the lexer
// sized its token slice from the input), plus 2% for map growth that
// differs between Go releases. Because the headers are generated from
// interp.Libc, the gate also moves when a table row changes the text.
const maxHeadersOnlyAllocs = 1320

// TestCompileHeadersAllocs gates the frontend's cost of the libc headers.
func TestCompileHeadersAllocs(t *testing.T) {
	got := testing.AllocsPerRun(20, func() {
		if _, err := Compile(headersOnlyUnit, "headers.c", Options{}); err != nil {
			t.Fatal(err)
		}
	})
	if got > maxHeadersOnlyAllocs {
		t.Errorf("compiling a headers-only unit: %.0f allocs, ceiling %d", got, maxHeadersOnlyAllocs)
	}
}

// maxRunAllocs is the ceiling for running an empty main, headers or not:
// 11 allocations measured with Go 1.24 on linux/amd64 (2% more is under
// one allocation). The function designators the headers declare take
// reserved object IDs and no per-run state, so a unit's libc prototypes
// cost a run nothing; before that, the headers-only run cost 79
// allocations and the empty main 25.
const maxRunAllocs = 11

// TestRunHeadersAllocs gates interp.Run on headersOnlyUnit against an
// empty main without headers: the headers may add at most 2 allocations.
func TestRunHeadersAllocs(t *testing.T) {
	runAllocs := func(src string) float64 {
		prog, err := Compile(src, "run.c", Options{})
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() {
			if res := interp.Run(prog, interp.Options{}); res.ExitCode != 0 || res.Err != nil {
				t.Fatalf("run: exit %d, err %v", res.ExitCode, res.Err)
			}
		})
	}
	headers, empty := runAllocs(headersOnlyUnit), runAllocs("int main(void){return 0;}\n")
	if headers > maxRunAllocs || empty > maxRunAllocs {
		t.Errorf("running an empty main: %.0f allocs with the headers, %.0f without, ceiling %d", headers, empty, maxRunAllocs)
	}
	if headers > empty+2 {
		t.Errorf("the headers add %.0f allocs to a run of an empty main (%.0f vs %.0f), at most 2 allowed", headers-empty, headers, empty)
	}
}
