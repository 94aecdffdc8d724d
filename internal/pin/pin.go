// Package pin holds the repository's pinned bits in one file: every value a
// test pins is one `name value` line of testdata/pins.txt, read through
// Check, and `make pins` rewrites the file from the lines Check logs.
package pin

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// manifest is testdata/pins.txt by name, read on the first Check.
var manifest = sync.OnceValues(func() (map[string]string, error) {
	_, self, _, _ := runtime.Caller(0)
	b, err := os.ReadFile(filepath.Join(filepath.Dir(self), "..", "..", "testdata", "pins.txt"))
	pins := map[string]string{}
	for i, line := range strings.Split(strings.TrimSuffix(string(b), "\n"), "\n") {
		f := strings.Fields(line)
		if err != nil || len(f) != 2 || pins[f[0]] != "" {
			return nil, fmt.Errorf("testdata/pins.txt:%d: %q is not a new `name value` pin (%v)", i+1, line, err)
		}
		pins[f[0]] = f[1]
	}
	return pins, nil
})

// Check logs "pin <name> <got>", the line make pins collects, and fails t,
// without stopping it, when the manifest holds another value for name or
// none. got is an integer: a CRC, a byte count, a float's bits.
func Check(t testing.TB, name string, got any) {
	t.Helper()
	v := fmt.Sprint(got)
	t.Logf("pin %s %s", name, v)
	pins, err := manifest()
	switch want, ok := pins[name]; {
	case err != nil:
		t.Errorf("pin %s: %v", name, err)
	case !ok:
		t.Errorf("pin %s: not in testdata/pins.txt; `make pins` adds it", name)
	case want != v:
		t.Errorf("pin %s: got %s, testdata/pins.txt holds %s; `make pins` rewrites it", name, v, want)
	}
}

// CRC is the CRC-32 (IEEE) of the little-endian bits of the float32s of vs,
// one slice after another.
func CRC(vs ...[]float32) uint32 {
	h := crc32.NewIEEE()
	for _, v := range vs {
		_ = binary.Write(h, binary.LittleEndian, v) // a hash's Write never fails
	}
	return h.Sum32()
}
