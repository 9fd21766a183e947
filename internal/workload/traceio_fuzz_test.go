package workload

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzTraceRoundTrip checks that the trace format is closed under
// write-then-read: any file ReadTrace accepts with n, m ≥ 1 serializes
// through WriteTrace and parses back to the same dimensions and the
// same per-cycle requests, and writing that parse again yields the same
// bytes. Comments, blank lines, spacing and signs are the only things a
// round trip may drop.
func FuzzTraceRoundTrip(f *testing.F) {
	f.Add([]byte("n=4 m=4\ncycle\n0 1\n1 0\ncycle\ncycle\n2 3\n"))
	f.Add([]byte("# recorded\nn=2 m=3 # header\n\ncycle\n  1   2 \ncycle # empty\n"))
	f.Add([]byte("n=+3 m=1\ncycle\n-1 +7\n"))
	f.Add([]byte("n=1 m=1\nn=2 m=5\ncycle\n0 4\n"))
	f.Fuzz(func(t *testing.T, file []byte) {
		n, m, cycles, err := ReadTrace(bytes.NewReader(file))
		if err != nil || n < 1 || m < 1 {
			return
		}
		var first bytes.Buffer
		if err := WriteTrace(&first, n, m, cycles); err != nil {
			t.Fatalf("WriteTrace(%d, %d): %v", n, m, err)
		}
		n2, m2, cycles2, err := ReadTrace(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("ReadTrace rejects WriteTrace output: %v\n%s", err, first.Bytes())
		}
		if n2 != n || m2 != m || !reflect.DeepEqual(cycles2, cycles) {
			t.Fatalf("round trip changed the trace: %d×%d %v → %d×%d %v", n, m, cycles, n2, m2, cycles2)
		}
		var second bytes.Buffer
		if err := WriteTrace(&second, n2, m2, cycles2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("WriteTrace output is not byte-stable:\n%s\nvs\n%s", first.Bytes(), second.Bytes())
		}
	})
}
