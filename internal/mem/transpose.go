package mem

// TransposeBytes computes the bytes moved by a transpose of rows*cols
// bytes: one read and one write of every byte. The paper views a
// cohort's buffers as a rows×cols 2-D byte array and transposes it
// between row-major (what the NIC wants) and column-major
// (word-interleaved, what coalesced SIMT access wants) on the way in
// and out of the device (§4.3.2, Figure 6). The simulator only prices
// that transpose: cohort bytes stay row-major throughout and the
// column-major layout exists in the timing model alone (see
// simt.Stream.Transpose).
func TransposeBytes(rows, cols int) int { return 2 * rows * cols }
