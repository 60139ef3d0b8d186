package driver

import "testing"

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
