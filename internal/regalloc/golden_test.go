package regalloc_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/irgen"
	"repro/internal/irtext"
	"repro/internal/machine"
	"repro/internal/regalloc"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/alloc_golden.txt from the current allocator")

const goldenPath = "testdata/alloc_golden.txt"

// goldenSeeds is the number of seeds per family the digests cover.
const goldenSeeds = 50

// goldenFamilies are the irgen configurations the digests cover.
var goldenFamilies = []struct {
	name string
	cfg  irgen.Config
}{
	{"default", irgen.Default()},
	{"crossover", irgen.Crossover()},
	{"hostile", irgen.Hostile()},
	{"small", irgen.Small()},
}

// goldenModes pairs a machine preset with the allocator options: the
// paper's uniform heuristic, and machine pricing on the two presets
// whose store:load ratio is skewed.
var goldenModes = []struct {
	name   string
	preset string
	opts   regalloc.Options
}{
	{"classic-uniform", "classic", regalloc.Options{}},
	{"deep-pipeline-priced", "deep-pipeline", regalloc.Options{MachineCosts: true}},
	{"slow-memory-priced", "slow-memory", regalloc.Options{MachineCosts: true}},
}

// goldenDigests allocates every (family, seed, mode) case and returns
// its key and the SHA-256 of the allocated program text, in file order.
func goldenDigests(t *testing.T) (keys, sums []string) {
	t.Helper()
	for _, fam := range goldenFamilies {
		for seed := uint64(0); seed < goldenSeeds; seed++ {
			for _, mode := range goldenModes {
				m, err := machine.Preset(mode.preset)
				if err != nil {
					t.Fatal(err)
				}
				p := irgen.Generate(seed, fam.cfg)
				if _, err := regalloc.AllocateProgramOpts(p, m, 1, mode.opts); err != nil {
					t.Fatalf("%s seed %d %s: %v", fam.name, seed, mode.name, err)
				}
				sum := sha256.Sum256([]byte(irtext.Print(p)))
				keys = append(keys, fmt.Sprintf("%s %d %s", fam.name, seed, mode.name))
				sums = append(sums, hex.EncodeToString(sum[:]))
			}
		}
	}
	return keys, sums
}

// TestAllocationGoldenDigests pins the allocator's output — every spill
// choice, tie-break, color and spill slot — to digests recorded from a
// known-good allocator. Unlike the classic-vs-uniform byte-identity
// test, which compares two modes of one implementation, this catches a
// rewrite that changes every mode alike. Regenerate with
// `go test ./internal/regalloc -run GoldenDigests -update` only when an
// allocation change is intended.
func TestAllocationGoldenDigests(t *testing.T) {
	keys, sums := goldenDigests(t)
	if *updateGolden {
		var sb strings.Builder
		sb.WriteString("# family seed mode sha256(allocated program text)\n")
		for i := range keys {
			fmt.Fprintf(&sb, "%s %s\n", keys[i], sums[i])
		}
		if err := os.WriteFile(goldenPath, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var wantKeys, wantSums []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed golden line %q", line)
		}
		wantKeys = append(wantKeys, line[:i])
		wantSums = append(wantSums, line[i+1:])
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(wantKeys) != len(keys) {
		t.Fatalf("golden file has %d cases, test computes %d", len(wantKeys), len(keys))
	}
	for i, k := range keys {
		if wantKeys[i] != k {
			t.Fatalf("golden case %d is %q, test computes %q", i, wantKeys[i], k)
		}
		if wantSums[i] != sums[i] {
			t.Fatalf("%s: allocation digest %s, golden %s", k, sums[i], wantSums[i])
		}
	}
}
