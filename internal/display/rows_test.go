package display

import (
	"testing"

	"thinbench/internal/simclock"
)

// pixel reads (x, y) through Row: 0 off the screen and in an unstored band.
func pixel(fb *Framebuffer, x, y int) byte {
	if row := fb.Row(y); row != nil && x >= 0 && x < fb.W {
		return row[x]
	}
	return 0
}

// setPixel is the per-pixel write that PaintBits and PutRow replaced, kept
// as their oracle: a write off the screen is dropped, and a zero written
// to an unstored band stores nothing.
func setPixel(fb *Framebuffer, x, y int, v byte) {
	if x < 0 || y < 0 || x >= fb.W || y >= fb.H {
		return
	}
	if row := fb.row(y, v != 0); row != nil {
		row[x] = v
	}
}

// The row-write screen has bands of 64, 64 and 22 rows.
const rowsW, rowsH = 100, 150

// playRowWrites plays data as a tape of row writes on two fresh screens:
// got through PaintBits and PutRow, want through setPixel one pixel at a
// time. A write is five bytes: kind (bit 0 clear for PaintBits, set for
// PutRow), column, row, then PaintBits' bits and color, or PutRow's pixel
// count and a skipped byte, its pixels following. Columns run from 16
// left of the screen to 16 past its right edge, rows from 8 above it to
// 8 below it.
func playRowWrites(data []byte) (got, want *Framebuffer) {
	got, want = NewFramebuffer(rowsW, rowsH), NewFramebuffer(rowsW, rowsH)
	for len(data) >= 5 {
		x := int(data[1])%(rowsW+32) - 16
		y := int(data[2])%(rowsH+16) - 8
		if data[0]&1 == 0 {
			bits, color := data[3], data[4]
			got.PaintBits(x, y, bits, color)
			for i := 0; i < 8; i++ {
				if bits>>uint(i)&1 == 1 {
					setPixel(want, x+i, y, color)
				}
			}
			data = data[5:]
			continue
		}
		n := min(int(data[3])%48, len(data)-5)
		pix := data[5 : 5+n]
		got.PutRow(x, y, pix)
		for i, v := range pix {
			setPixel(want, x+i, y, v)
		}
		data = data[5+n:]
	}
	return got, want
}

// rowWriteTape draws n row writes in playRowWrites' format. Half of them
// land within eight rows of the band boundary at row 64, and a third of
// the colors and pixels are zero, so band storage is exercised both ways.
func rowWriteTape(r *simclock.Rand, n int) []byte {
	color := func() byte {
		if r.Intn(3) == 0 {
			return 0
		}
		return byte(1 + r.Intn(255))
	}
	var out []byte
	for i := 0; i < n; i++ {
		row := byte(r.Intn(256))
		if r.Intn(2) == 0 {
			row = byte(64 + r.Intn(17)) // rows 56-72
		}
		kind := byte(r.Intn(2))
		out = append(out, kind, byte(r.Intn(256)), row)
		if kind == 0 {
			out = append(out, byte(r.Intn(256)), color())
			continue
		}
		k := r.Intn(48)
		out = append(out, byte(k), 0)
		for j := 0; j < k; j++ {
			out = append(out, color())
		}
	}
	return out
}

// FuzzRowWrites checks the two row writes against their per-pixel oracle:
// over any tape of PaintBits and PutRow calls, clipped at every edge and
// across the row-64 band boundary, both screens hold the same pixels,
// hash alike and store the same bands.
func FuzzRowWrites(f *testing.F) {
	// A zero color and all-zero pixels on unstored bands store nothing;
	// the same on a band a non-zero write stored overwrite its pixels.
	f.Add([]byte{0, 40, 80, 0xFF, 0, 1, 40, 80, 4, 0, 0, 0, 0, 0})
	f.Add([]byte{0, 40, 80, 0xA5, 9, 0, 40, 81, 0xFF, 0, 1, 36, 79, 8, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	// Partly off the left edge (column -3), the right edge (column 97)
	// and wholly off both, on row 63 and row 64.
	f.Add([]byte{0, 13, 71, 0xFF, 5, 0, 113, 72, 0xFF, 5, 0, 0, 71, 0xFF, 5, 0, 131, 72, 0xFF, 5})
	f.Add([]byte{1, 13, 71, 6, 0, 1, 2, 3, 4, 5, 6, 1, 113, 72, 6, 0, 1, 2, 3, 4, 5, 6})
	r := simclock.NewRand(43)
	for i := 0; i < 40; i++ {
		f.Add(rowWriteTape(r, 1+r.Intn(40)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, want := playRowWrites(data)
		if !got.Equal(want) || !want.Equal(got) || got.Hash() != want.Hash() {
			for y := 0; y < rowsH; y++ {
				for x := 0; x < rowsW; x++ {
					if a, b := pixel(got, x, y), pixel(want, x, y); a != b {
						t.Fatalf("pixel (%d,%d) = %d, per-pixel oracle %d", x, y, a, b)
					}
				}
			}
			t.Fatal("screens differ in Equal or Hash with every pixel alike")
		}
		for i := range got.bands {
			if (got.bands[i] == nil) != (want.bands[i] == nil) {
				t.Fatalf("band %d stored %v, per-pixel oracle %v", i, got.bands[i] != nil, want.bands[i] != nil)
			}
		}
	})
}
