package interp

import "testing"

// TestLibcTable: call dispatch serves exactly the 42 rows of Libc, and the
// order search's effect classes are 9 pure, 2 RNG and 31 universal.
func TestLibcTable(t *testing.T) {
	want := map[string]Effect{
		"abs": EffectPure, "labs": EffectPure, "isdigit": EffectPure, "isalpha": EffectPure,
		"isspace": EffectPure, "isupper": EffectPure, "islower": EffectPure,
		"toupper": EffectPure, "tolower": EffectPure, "rand": EffectRNG, "srand": EffectRNG,
	}
	if len(Libc) != 42 || len(builtins) != 42 {
		t.Fatalf("Libc has %d rows and builtins %d names, want 42", len(Libc), len(builtins))
	}
	for _, f := range Libc {
		if builtins[f.Name].Proto != f.Proto {
			t.Errorf("builtins[%q] is not its Libc row", f.Name)
		}
		if f.Effect != want[f.Name] || EffectOf(f.Name) != want[f.Name] {
			t.Errorf("%s: effect %d, EffectOf %d, want %d", f.Name, f.Effect, EffectOf(f.Name), want[f.Name])
		}
	}
	if EffectOf("not_libc") != EffectUniversal {
		t.Error("a name outside Libc must be a universal conflict")
	}
}
