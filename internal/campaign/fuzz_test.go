package campaign

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// FuzzManifestRestore feeds arbitrary journal bytes through OpenManifest
// and Restore: whatever the file holds, restore must not panic, every
// unit it hands to fn must be in range and carry ValsPerUnit values, no
// unit may be handed over twice, and a successful restore must report
// exactly the units it handed over. The seeds are a complete journal,
// its truncations, a claim line as earlier versions wrote them, and
// corrupt unit records.
func FuzzManifestRestore(f *testing.F) {
	sp := testSpec()
	sp.Replicates = 2
	sp.Axes = sp.Axes[:1]
	ur, err := NewUnitRunner(sp)
	if err != nil {
		f.Fatal(err)
	}
	units, policies, width := ur.TotalUnits(), ur.Policies(), ur.ValsPerUnit()

	ref := filepath.Join(f.TempDir(), "ref.manifest")
	man, err := OpenManifest(ref)
	if err != nil {
		f.Fatal(err)
	}
	if _, err := man.Restore(sp, policies, func(int, []float64) {}, nil); err != nil {
		f.Fatal(err)
	}
	for u := 0; u < units; u++ {
		vals := make([]float64, width)
		for k := range vals {
			vals[k] = float64(u*width + k)
		}
		if err := man.AppendUnit(u, vals); err != nil {
			f.Fatal(err)
		}
	}
	man.Close()
	blob, err := os.ReadFile(ref)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	f.Add(blob[:len(blob)/2])
	f.Add(blob[:len(blob)-3])
	header := blob[:bytes.IndexByte(blob, '\n')+1]
	f.Add(append(append([]byte(nil), header...), `{"lease":"claim","id":1,"worker":2,"units":[0,1]}`+"\n"...))
	f.Add(append(append([]byte(nil), header...), fmt.Sprintf(`{"unit":%d,"makespans":[1]}`+"\n", units)...))
	f.Add(append(append([]byte(nil), header...), `{"unit":-1,"makespans":[]}`+"\n"...))
	f.Add([]byte("{\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "m.manifest")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := OpenManifest(path)
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		seen := make(map[int]bool)
		n, err := m.Restore(sp, policies, func(unit int, vals []float64) {
			if unit < 0 || unit >= units {
				t.Fatalf("restored unit %d outside [0, %d)", unit, units)
			}
			if len(vals) != width {
				t.Fatalf("unit %d restored with %d values, want %d", unit, len(vals), width)
			}
			if seen[unit] {
				t.Fatalf("unit %d restored twice", unit)
			}
			seen[unit] = true
		}, nil)
		if err == nil && n != len(seen) {
			t.Fatalf("restore reported %d units, handed over %d", n, len(seen))
		}
	})
}
