package workload

import (
	"thinbench/internal/display"
	"thinbench/internal/simclock"
)

// OfficeConfig scales the §6.1.2 application workload: a predefined set of
// user interactions with a word processor (WordPerfect in the paper), a
// bitmap editor (the Gimp), and a control-panel applet.
type OfficeConfig struct {
	Seed uint64
	// TypingChars is the number of characters typed in the word processor.
	TypingChars int
	// PaintStrokes is the number of brush strokes drawn in the editor.
	PaintStrokes int
	// PanelActions is the number of control-panel interactions.
	PanelActions int
	// ReviewScrolls is the number of scroll steps while reading the
	// document back (mouse-heavy, display-light).
	ReviewScrolls int
}

// DefaultOfficeConfig sizes the workload to several minutes of active use,
// with the motion-heavy interaction profile the paper's input-channel
// numbers imply (tens of thousands of pointer events).
func DefaultOfficeConfig() OfficeConfig {
	return OfficeConfig{
		Seed:          0x0ff1ce,
		TypingChars:   2400,
		PaintStrokes:  100,
		PanelActions:  30,
		ReviewScrolls: 300,
	}
}

// OfficeTrace generates the full §6.1.2 workload: WordPerfect editing,
// Gimp painting, control-panel configuration, and a document review pass.
func OfficeTrace(cfg OfficeConfig) Trace {
	b := newBuilder("office", cfg.Seed)
	wordProcessor(b, cfg)
	bitmapEditor(b, cfg)
	controlPanel(b, cfg)
	documentReview(b, cfg)
	return b.finish()
}

// uiIcon returns one of a small set of repeated interface bitmaps
// (toolbar buttons, window decorations): flat-colored and reused
// constantly, exactly the content the TSE bitmap cache was designed for.
func uiIcon(n int) *display.Bitmap {
	return display.SyntheticFrame(0x1c0f+uint64(n%12), 0, 24, 24)
}

// windowChrome draws a window frame: title bar, borders, toolbar icons.
func windowChrome(b *builder, x, y, w, h int, title string) {
	from := b.open()
	b.tape.Fill(display.Rect{X: x, Y: y, W: w, H: h}, 7)
	b.tape.Fill(display.Rect{X: x, Y: y, W: w, H: 18}, 4)
	b.tape.Text(x+4, y+2, title, 15)
	b.commit(from)
	from = b.open()
	for i := 0; i < 8; i++ {
		b.tape.Blit(x+4+i*28, y+22, uiIcon(i))
	}
	b.commit(from)
}

// wordProcessor models document editing: typing with character echo,
// periodic word wrap and scrolling, menu usage.
func wordProcessor(b *builder, cfg OfficeConfig) {
	windowChrome(b, 40, 30, 640, 460, "WordPerfect - report.wpd")
	col, line := 0, 0
	for i := 0; i < cfg.TypingChars; i++ {
		// Keystroke: press + release, then the echo drawn at the caret.
		code := uint16(30 + b.rng.Intn(26))
		b.input(display.KeyEvent{Down: true, Code: code})
		b.advance(30 * simclock.Millisecond)
		b.input(display.KeyEvent{Down: false, Code: code})
		ch := string(rune('a' + int(code-30)))
		from := b.open()
		b.tape.Text(56+col*display.GlyphW, 80+line*16, ch, 0)
		b.commit(from)
		col++
		if col >= 70 { // word wrap
			col, line = 0, line+1
			if line >= 24 { // scroll the document up one line
				line = 23
				from = b.open()
				b.tape.Copy(display.Rect{X: 56, Y: 96, W: 560, H: 368}, 56, 80)
				b.tape.Fill(display.Rect{X: 56, Y: 448, W: 560, H: 16}, 7)
				b.commit(from)
			}
		}
		// Typing cadence with jitter around ~7 chars/sec.
		b.advance(b.rng.UniformDuration(80*simclock.Millisecond, 200*simclock.Millisecond))
		// Occasionally open a menu: mouse travel + a menu panel with icons.
		if i%400 == 399 {
			mouseTravel(b, 56+col*8, 80+line*16, 120, 36, 14)
			from = b.open()
			b.tape.Fill(display.Rect{X: 100, Y: 50, W: 180, H: 220}, 7)
			b.tape.Text(104, 54, "File Edit View Insert", 0)
			b.tape.Blit(104, 70, uiIcon(9))
			b.tape.Blit(104, 98, uiIcon(10))
			b.commit(from)
			b.input(display.MouseButton{Down: true, Button: 1})
			b.advance(100 * simclock.Millisecond)
			b.input(display.MouseButton{Down: false, Button: 1})
			// Menu closes: the document region repaints.
			from = b.open()
			b.tape.Fill(display.Rect{X: 100, Y: 50, W: 180, H: 220}, 7)
			b.commit(from)
			mouseTravel(b, 120, 36, 56+col*8, 80+line*16, 10)
		}
	}
}

// brushStamp returns the brush stamp bitmap for one stroke. Within a
// stroke the same stamp lands again and again — repeated content that a
// bitmap cache turns into swap messages while X must retransmit the pixels
// every placement. Each stroke's brush differs (color/size tweaks), so the
// cache pays a fresh miss per stroke.
func brushStamp(stroke int) *display.Bitmap {
	return display.SyntheticBlocky(0xb25+uint64(stroke), 0, 32, 32, 3)
}

// bitmapEditor models the paper's Gimp task, "creating a simple bitmap":
// drag strokes stamping the brush onto a canvas — motion-heavy input and
// image-heavy display. Stroke ends occasionally produce a unique blended
// region (filter preview), content no cache can help with.
func bitmapEditor(b *builder, cfg OfficeConfig) {
	windowChrome(b, 100, 80, 560, 420, "The GIMP - untitled.xcf")
	// Tool palette with repeated icons.
	from := b.open()
	for i := 0; i < 12; i++ {
		b.tape.Blit(110, 130+i*28, uiIcon(i))
	}
	b.commit(from)
	for s := 0; s < cfg.PaintStrokes; s++ {
		// Move to the stroke start.
		x0, y0 := 180+b.rng.Intn(380), 150+b.rng.Intn(300)
		mouseTravel(b, 200, 200, x0, y0, 12+b.rng.Intn(10))
		b.input(display.MouseButton{Down: true, Button: 1})
		stamp := brushStamp(s)
		// Drag: continuous motion at ~80 Hz; every few samples the brush
		// stamps the canvas.
		steps := 60 + b.rng.Intn(80)
		x, y := x0, y0
		for i := 0; i < steps; i++ {
			x += b.rng.Intn(9) - 4
			y += b.rng.Intn(7) - 3
			b.input(display.MouseMove{X: x, Y: y})
			b.advance(12 * simclock.Millisecond)
			if i%3 == 0 {
				from = b.open()
				b.tape.Blit(x-16, y-16, stamp)
				b.commit(from)
			}
		}
		b.input(display.MouseButton{Down: false, Button: 1})
		// Filter/blend preview after each stroke: a unique photographic
		// region no cache or codec can shrink.
		from = b.open()
		b.tape.Blit(x-32, y-32, display.SyntheticPhoto(0xb1e4d, s, 64, 64))
		b.commit(from)
		b.advance(b.rng.UniformDuration(200*simclock.Millisecond, 900*simclock.Millisecond))
	}
}

// documentReview models reading the document back: continuous pointer
// movement and scroll steps that cost the display channel almost nothing
// (a copy plus one repainted line) while the input channel streams
// motion — the traffic profile where X's 32-byte events hurt most.
func documentReview(b *builder, cfg OfficeConfig) {
	x, y := 400, 300
	for s := 0; s < cfg.ReviewScrolls; s++ {
		// Wander the pointer while reading.
		steps := 30 + b.rng.Intn(30)
		for i := 0; i < steps; i++ {
			x += b.rng.Intn(13) - 6
			y += b.rng.Intn(9) - 4
			b.input(display.MouseMove{X: x, Y: y})
			b.advance(14 * simclock.Millisecond)
		}
		// Scroll one line.
		b.input(display.MouseButton{Down: true, Button: 4})
		b.input(display.MouseButton{Down: false, Button: 4})
		from := b.open()
		b.tape.Copy(display.Rect{X: 56, Y: 96, W: 560, H: 368}, 56, 80)
		b.tape.Fill(display.Rect{X: 56, Y: 448, W: 560, H: 16}, 7)
		b.tape.Text(56, 448, "the quick brown fox jumps over the lazy dog", 0)
		b.commit(from)
		b.advance(b.rng.UniformDuration(100*simclock.Millisecond, 400*simclock.Millisecond))
	}
}

// controlPanel models applet configuration: dialog navigation with
// repeated widget bitmaps, label text, and field entry.
func controlPanel(b *builder, cfg OfficeConfig) {
	windowChrome(b, 200, 120, 420, 340, "Network Configuration")
	for a := 0; a < cfg.PanelActions; a++ {
		// Move to a tab or widget and click.
		mouseTravel(b, 300+b.rng.Intn(40), 300, 220+b.rng.Intn(360), 140+b.rng.Intn(280), 16)
		b.input(display.MouseButton{Down: true, Button: 1})
		b.advance(90 * simclock.Millisecond)
		b.input(display.MouseButton{Down: false, Button: 1})
		// The tab body repaints: panel fill, labels, repeated widgets.
		from := b.open()
		b.tape.Fill(display.Rect{X: 208, Y: 160, W: 404, H: 290}, 7)
		b.tape.Text(216, 170, "IP Address:", 0)
		b.tape.Text(216, 200, "Subnet Mask:", 0)
		b.tape.Text(216, 230, "Default Gateway:", 0)
		for i := 0; i < 5; i++ {
			b.tape.Blit(560, 166+i*30, uiIcon(i+4))
		}
		b.commit(from)
		// Type a short value into a field.
		for i := 0; i < 11; i++ {
			code := uint16(2 + b.rng.Intn(10))
			b.input(display.KeyEvent{Down: true, Code: code})
			b.advance(40 * simclock.Millisecond)
			b.input(display.KeyEvent{Down: false, Code: code})
			from = b.open()
			b.tape.Text(320+i*display.GlyphW, 170+(a%3)*30, "0", 0)
			b.commit(from)
			b.advance(80 * simclock.Millisecond)
		}
		b.advance(b.rng.UniformDuration(300*simclock.Millisecond, 1200*simclock.Millisecond))
	}
}

// mouseTravel emits motion samples along the path from (x0,y0) to (x1,y1)
// at the era's ~60-80 Hz mouse sampling rate.
func mouseTravel(b *builder, x0, y0, x1, y1, steps int) {
	if steps < 1 {
		steps = 1
	}
	for i := 1; i <= steps; i++ {
		x := x0 + (x1-x0)*i/steps
		y := y0 + (y1-y0)*i/steps
		b.input(display.MouseMove{X: x, Y: y})
		b.advance(14 * simclock.Millisecond)
	}
}
