package exec

import (
	"fmt"
	"testing"

	"repro/internal/excess/sema"
	"repro/internal/value"
)

// BenchmarkBindingClone pins the cost of snapshotting a binding, which
// runs once per retained row in grouped retrieves. The sizes bracket
// typical queries (1–2 variables) and wide multi-variable joins.
func BenchmarkBindingClone(b *testing.B) {
	for _, nvars := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("vars=%d", nvars), func(b *testing.B) {
			src := newBinding()
			for i := 0; i < nvars; i++ {
				v := &sema.Var{Name: fmt.Sprintf("v%d", i), Slot: i}
				src.bind(v, value.NewInt(int64(i)), slot{})
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c := src.clone()
				if len(c.vals) != nvars {
					b.Fatal("bad clone")
				}
				c.release()
			}
		})
	}
}
