package service

import (
	"fmt"
	"strings"
)

// Piece is one fragment of a generated response body. The host renderer
// concatenates pieces; the device kernel stores the rendered buffer with
// strided stores whose coalescing depends on whether every lane's body
// offset is still aligned — which is exactly what PadTo maintains.
type Piece struct {
	// Data is the fragment content. It is a string so appending template
	// or backend-derived text never copies: the piece aliases the source
	// bytes, and the renderer writes it straight into the response buffer.
	Data string
	// Static marks template content (constant memory on the device,
	// cheap per byte); dynamic content is backend-derived and expensive.
	Static bool
}

// Costs is a workload's structural instruction cost model: a fixed
// per-request charge, per-byte emission charges, and a per-backend
// round-trip charge. The defaults are banking's Table 2 calibration
// (DESIGN.md), a reasonable prior for any page-shaped workload.
type Costs struct {
	Fixed      int64
	StaticByte int64
	DynByte    int64
	Backend    int64
}

// DefaultCosts is banking's calibrated model.
func DefaultCosts() Costs {
	return Costs{Fixed: 20000, StaticByte: 15, DynByte: 70, Backend: 20000}
}

func (c *Costs) fill() {
	d := DefaultCosts()
	if c.Fixed <= 0 {
		c.Fixed = d.Fixed
	}
	if c.StaticByte <= 0 {
		c.StaticByte = d.StaticByte
	}
	if c.DynByte <= 0 {
		c.DynByte = d.DynByte
	}
	if c.Backend <= 0 {
		c.Backend = d.Backend
	}
}

// PageBuilder accumulates a response body as pieces, charging the
// workload's cost model and recording a basic-block trace for the
// similarity study (Fig 2). Builders come attached to a Ctx; the
// workload sets their cost model and padding per request.
type PageBuilder struct {
	pieces  []Piece
	bodyLen int
	instr   int64
	blocks  []uint32
	costs   Costs
	// padding enables the §4.3.2 whitespace alignment. When disabled
	// (ablation), PadTo is a no-op and lanes' offsets diverge.
	padding bool
	// misaligned counts PadTo targets that had already been passed —
	// a mis-sized section budget.
	misaligned int
	// marks records the body offset after each PadTo call: the section
	// boundaries the device kernel stores the response along. With
	// padding on and budgeted sections, marks are identical for every
	// request of a type (the cohort alignment invariant); with padding
	// off they drift apart, which is what ruins coalescing in the
	// ablation.
	marks []int
	// lastBlock is the most recent explicit basic block, used to label
	// the emission blocks of the fragments that follow it.
	lastBlock uint32
}

// Reset clears the builder for reuse, keeping the piece/block/mark
// slice capacity and its settings, so a pooled builder builds its next
// page without reallocating.
func (b *PageBuilder) Reset() {
	b.pieces = b.pieces[:0]
	b.bodyLen = 0
	b.instr = 0
	b.blocks = b.blocks[:0]
	b.misaligned = 0
	b.marks = b.marks[:0]
	b.lastBlock = 0
}

// SetPadding toggles §4.3.2 whitespace alignment (the ablation knob).
func (b *PageBuilder) SetPadding(on bool) { b.padding = on }

// Static appends template content.
func (b *PageBuilder) Static(s string) {
	b.pieces = append(b.pieces, Piece{Data: s, Static: true})
	b.bodyLen += len(s)
	b.instr += int64(len(s)) * b.costs.StaticByte
	b.emitBlocks(len(s))
}

// Dynamic appends backend-derived content.
func (b *PageBuilder) Dynamic(s string) {
	b.pieces = append(b.pieces, Piece{Data: s})
	b.bodyLen += len(s)
	b.instr += int64(len(s)) * b.costs.DynByte
	b.emitBlocks(len(s))
}

// Dynamicf appends formatted backend-derived content.
func (b *PageBuilder) Dynamicf(format string, args ...any) {
	b.Dynamic(fmt.Sprintf(format, args...))
}

// emitChunk is the bytes-per-basic-block granularity of the emission
// loops: a fragment of n bytes contributes ~n/emitChunk dynamic basic
// blocks to the trace, the way a real copy/format loop does in a Pin
// trace. This keeps loop-trip divergence proportional to its true share
// of the executed blocks (Fig 2).
const emitChunk = 256

// emissionBlock marks a trace entry as an emission-loop block labeled
// by the explicit block preceding it.
const emissionBlock = 0x8000_0000

func (b *PageBuilder) emitBlocks(n int) {
	for ; n > 0; n -= emitChunk {
		b.blocks = append(b.blocks, emissionBlock|b.lastBlock)
	}
}

// PadTo pads the body with spaces to exactly offset n (rounded up to a
// word boundary), realigning every lane of the cohort after a
// variable-length dynamic section (§4.3.2 "Whitespace Padding in HTML
// Content"). Already being past n is tolerated and counted in
// Misaligned: response correctness never depends on alignment, only
// coalescing does. Every call records a section mark, padded or not.
func (b *PageBuilder) PadTo(n int) {
	defer func() { b.marks = append(b.marks, b.bodyLen) }()
	if !b.padding {
		return
	}
	// Round the target up to a word boundary: aligned marks keep the
	// cohort's interleaved stores on 4-byte-word lanes, which is what
	// makes the padded sections fully coalesce on the device.
	n = (n + wordSize - 1) &^ (wordSize - 1)
	if b.bodyLen > n {
		b.misaligned++
		return
	}
	if b.bodyLen == n {
		return
	}
	pad := n - b.bodyLen
	b.pieces = append(b.pieces, Piece{Data: spaces(pad), Static: true})
	b.bodyLen += pad
	b.instr += int64(pad) * b.costs.StaticByte
}

// FillTo emits deterministic filler template prose until the body
// reaches offset n — the bulk static HTML (styling, boilerplate,
// scripts) that gives each page its published size.
func (b *PageBuilder) FillTo(n int) { b.FillWith(n, fillerPara) }

// FillWith is FillTo with a workload's own filler paragraph.
func (b *PageBuilder) FillWith(n int, para string) {
	if b.bodyLen >= n {
		return
	}
	b.Static(Filler(para, n-b.bodyLen))
}

// Block records the execution of basic block id in the page trace.
func (b *PageBuilder) Block(id uint32) {
	b.blocks = append(b.blocks, id)
	b.lastBlock = id
}

// LastBlock reports the current emission-label block.
func (b *PageBuilder) LastBlock() uint32 { return b.lastBlock }

// Reconverge restores the emission label after a data-dependent branch:
// code following the reconvergence point has the same block addresses on
// every path, so its emission blocks must be labeled identically.
func (b *PageBuilder) Reconverge(id uint32) { b.lastBlock = id }

// Len reports the body bytes accumulated so far.
func (b *PageBuilder) Len() int { return b.bodyLen }

// Instr reports the instructions charged for page generation so far.
func (b *PageBuilder) Instr() int64 { return b.instr }

// Marks returns the body offsets observed at each PadTo call.
func (b *PageBuilder) Marks() []int { return b.marks }

// Misaligned reports how many PadTo targets were overshot.
func (b *PageBuilder) Misaligned() int { return b.misaligned }

// Pieces returns the accumulated fragments.
func (b *PageBuilder) Pieces() []Piece { return b.pieces }

// Blocks returns the recorded basic-block trace.
func (b *PageBuilder) Blocks() []uint32 { return b.blocks }

// spacesBank backs spaces(): padding runs slice it instead of
// allocating, so PadTo is allocation-free for any realistic pad.
var spacesBank = strings.Repeat(" ", 1<<16)

// spaces returns n space characters without allocating when n fits the
// precomputed bank (it always does: pads are bounded by the 64KB max
// response buffer).
func spaces(n int) string {
	if n <= len(spacesBank) {
		return spacesBank[:n]
	}
	return strings.Repeat(" ", n)
}

// fillerPara is the default filler paragraph.
const fillerPara = "<p class=\"fine\">Offers subject to change. Availability and delivery " +
	"estimates are computed at order time and may vary by region. Streamed device " +
	"telemetry is retained per the published data policy; see your account " +
	"settings for export options. Catalog descriptions are provided by the " +
	"merchant of record. Do not share your access credentials; support staff " +
	"will never request your password. All prices are shown before tax.</p>\n"

// Filler produces n bytes of deterministic HTML-ish filler prose by
// repeating para. The content is fixed (template text), so it is
// "static" in the cost model and identical across requests of a type;
// a partial paragraph is truncated inside a comment so the markup stays
// well-formed.
func Filler(para string, n int) string {
	var sb strings.Builder
	sb.Grow(n)
	for sb.Len() < n {
		remain := n - sb.Len()
		if remain >= len(para) {
			sb.WriteString(para)
		} else if remain >= 9 {
			sb.WriteString("<!--")
			for sb.Len() < n-3 {
				sb.WriteByte('.')
			}
			sb.WriteString("-->")
		} else {
			for sb.Len() < n {
				sb.WriteByte(' ')
			}
		}
	}
	return sb.String()
}
