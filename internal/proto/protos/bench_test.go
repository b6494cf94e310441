package protos_test

import (
	"testing"

	"thinbench/internal/display"
	"thinbench/internal/proto"
	"thinbench/internal/proto/protos"
)

// BenchmarkGlyphEcho times one keystroke's echo through each codec and
// nothing else: the caret glyph a server's sendEcho draws, in color 0,
// encoded by Server.Update and painted by Client.Apply. The caret moves a
// column per echo and wraps at 70 columns by 24 lines, as a session's
// does. The warm-up types one full wrap outside the timer, so every
// scratch buffer and cache entry the echo needs is in place, and the loop
// must read 0 allocs/op for every codec (CI asserts it).
func BenchmarkGlyphEcho(b *testing.B) {
	for _, name := range protos.Names() {
		b.Run(name, func(b *testing.B) {
			srv, cli, _, err := protos.New(name)
			if err != nil {
				b.Fatal(err)
			}
			var (
				tape display.OpTape
				sc   proto.Scratch
				col  int
			)
			echo := func() {
				x, y := 56+(col%70)*display.GlyphW, 80+(col/70%24)*16
				col++
				tape.Reset()
				tape.Text(x, y, "a", 0)
				for _, m := range srv.Update(&tape, 0, tape.Len(), &sc) {
					if err := cli.Apply(m); err != nil {
						b.Fatal(err)
					}
				}
			}
			for i := 0; i < 70*24; i++ {
				echo()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				echo()
			}
		})
	}
}
