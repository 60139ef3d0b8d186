package interp_test

// Function designators take the object IDs 1..F in declaration order, the
// same in every run of a program (sema.Program.FuncSyms), so everything
// derived from a function's address — its integer rendering, the bytes of
// a stored function pointer, the state digest — is a function of the
// program alone.

import (
	"testing"

	undefc "repro"
	"repro/internal/interp"
)

// funcAddrSrc prints a function's address; the headers declare several
// dozen functions ahead of f, all of which are designators too.
const funcAddrSrc = `#include <stdio.h>
#include <stdlib.h>
#include <string.h>
int f(void) { return 1; }
int g(void) { return 2; }
int main(void) {
	printf("%lu %lu\n", (unsigned long)f, (unsigned long)g);
	return f() + g();
}
`

func TestFunctionAddressesDeterministic(t *testing.T) {
	prog, err := undefc.Compile(funcAddrSrc, "fa.c", undefc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	first := undefc.Run(prog, undefc.Options{})
	if first.UB != nil || first.Err != nil || first.ExitCode != 3 {
		t.Fatalf("run: exit %d, UB %v, err %v", first.ExitCode, first.UB, first.Err)
	}
	for i := 1; i < 20; i++ {
		res := undefc.Run(prog, undefc.Options{})
		if res.Output != first.Output {
			t.Fatalf("run %d printed %q, run 0 printed %q", i, res.Output, first.Output)
		}
	}
}

// digestAt is a left-to-right scheduler that records the machine's state
// digest at every choice point.
type digestAt struct {
	in      *interp.Interp
	digests []uint64
}

func (d *digestAt) Pick(n int) int {
	d.digests = append(d.digests, d.in.StateDigest())
	return 0
}

func TestStateDigestWithFunctionPointer(t *testing.T) {
	prog, err := undefc.Compile(`#include <stdio.h>
#include <stdlib.h>
int f(void) { return 1; }
int g(void) { return 2; }
int (*fp)(void);
int main(void) {
	fp = g;
	return f() + fp();
}
`, "fp.c", undefc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	digests := func() []uint64 {
		d := &digestAt{}
		d.in = interp.New(prog, interp.Options{Sched: d})
		if res := d.in.RunMachine(); res.UB != nil || res.Err != nil || res.ExitCode != 3 {
			t.Fatalf("run: exit %d, UB %v, err %v", res.ExitCode, res.UB, res.Err)
		}
		return d.digests
	}
	want := digests()
	if len(want) == 0 {
		t.Fatal("the run passed no choice point")
	}
	for i := 1; i < 5; i++ {
		got := digests()
		if len(got) != len(want) {
			t.Fatalf("run %d passed %d choice points, run 0 passed %d", i, len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("run %d: digest at choice point %d is %#x, run 0 had %#x", i, j, got[j], want[j])
			}
		}
	}
}

// TestStateDigestPinned pins the digests at the choice points of a
// program that stores no function pointer: the header's designators fold
// into the digest as the objects of IDs 1..F they used to be, so the
// values match those of the map-based interpreter.
func TestStateDigestPinned(t *testing.T) {
	prog, err := undefc.Compile(`#include <stdio.h>
int d = 5;
int setDenom(int x) { static int calls; calls++; return d = x; }
int main(void) {
	const char *s = "go";
	printf("%s\n", s);
	return (10 / d) + setDenom(2);
}
`, "pin.c", undefc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	d := &digestAt{}
	d.in = interp.New(prog, interp.Options{Sched: d})
	if res := d.in.RunMachine(); res.UB != nil || res.Err != nil || res.ExitCode != 4 {
		t.Fatalf("run: exit %d, UB %v, err %v", res.ExitCode, res.UB, res.Err)
	}
	want := []uint64{
		0xc2dbd47668a49222, 0xc2dbd47668a49222, 0xc2dbd47668a49222,
		0xeec21c15c2adc9df, 0xeec21c15c2adc9df,
		0xf912098bfc4db7b2, 0xf912098bfc4db7b2,
		0x8b81b1d832c9e46d, 0x8b81b1d832c9e46d,
		0xf19aeeb8a6eaaca7, 0xf19aeeb8a6eaaca7,
	}
	if len(d.digests) != len(want) {
		t.Fatalf("%d choice points, want %d", len(d.digests), len(want))
	}
	for i := range want {
		if d.digests[i] != want[i] {
			t.Errorf("digest at choice point %d = %#x, want %#x", i, d.digests[i], want[i])
		}
	}
}
