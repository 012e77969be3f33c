package relay

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"duet/internal/graph"
	"duet/internal/tensor"
)

// modelVersion is the model file format version (package doc).
const modelVersion = 2

// chunkBytes sizes the bufio buffer every weight streams through.
const chunkBytes = 64 << 10

// WriteModel writes g with its weights to w as a model file.
func WriteModel(g *graph.Graph, w io.Writer) error {
	m, weights, err := FromGraph(g)
	if err != nil {
		return err
	}
	text := m.String()
	bw := bufio.NewWriterSize(w, chunkBytes)
	fmt.Fprintf(bw, "duet-model %d %d %q\n%s", modelVersion, len(text), g.Name, text)
	for _, name := range m.weightOrder() {
		t := weights[name]
		b := binary.LittleEndian.AppendUint32(bw.AvailableBuffer(), uint32(len(t.Shape())))
		for _, d := range t.Shape() {
			b = binary.LittleEndian.AppendUint32(b, uint32(d))
		}
		bw.Write(b)
		// Encode straight into bw's free space, flushing as it fills.
		for xs := t.Data(); len(xs) > 0; {
			if bw.Available() < 4 && bw.Flush() != nil {
				break
			}
			n := min(len(xs), bw.Available()/4)
			b := bw.AvailableBuffer()
			for _, v := range xs[:n] {
				b = binary.LittleEndian.AppendUint32(b, math.Float32bits(v))
			}
			bw.Write(b)
			xs = xs[n:]
		}
	}
	return bw.Flush() // a bufio.Writer keeps its first error
}

// ReadModel reads a model file written by WriteModel. When r can tell how
// many bytes it holds (an *os.File, or anything with a Len method such as
// *bytes.Reader and *bytes.Buffer), a section that declares more values
// than remain is refused before its weight is allocated.
func ReadModel(r io.Reader) (*graph.Graph, error) {
	left := streamSize(r)
	br := bufio.NewReaderSize(r, chunkBytes)
	// ReadSlice stops at the buffer's size: a JSON file is one long line.
	line, err := br.ReadSlice('\n')
	if err != nil && err != bufio.ErrBufferFull && err != io.EOF {
		return nil, fmt.Errorf("relay: reading the model header: %w", err)
	}
	header := string(line)
	var version int
	var textLen int64
	var name string
	if _, err := fmt.Sscanf(header, `{"version":%d`, &version); err == nil {
		return nil, fmt.Errorf("relay: model file format version %d (JSON) is not supported; want version %d", version, modelVersion)
	}
	if n, err := fmt.Sscanf(header, "duet-model %d %d %q\n", &version, &textLen, &name); n > 0 && version != modelVersion {
		return nil, fmt.Errorf("relay: model file format version %d is not supported; want version %d", version, modelVersion)
	} else if err != nil {
		return nil, fmt.Errorf("relay: not a model file: %w", err)
	}
	if left >= 0 {
		if left -= int64(len(header)) + textLen; left < 0 {
			return nil, fmt.Errorf("relay: model text declares %d bytes, more than the stream holds", textLen)
		}
	}
	var text strings.Builder
	if n, err := io.CopyN(&text, br, textLen); err != nil {
		return nil, fmt.Errorf("relay: model text truncated at %d of %d bytes: %w", n, textLen, noEOF(err))
	}
	m, err := Parse(text.String())
	if err != nil {
		return nil, err
	}
	weights := make(map[string]*tensor.Tensor)
	for _, w := range m.weightOrder() {
		if weights[w], err = readSection(br, &left); err != nil {
			return nil, fmt.Errorf("relay: weight @%s: %w", w, err)
		}
	}
	if _, err := br.ReadByte(); err == nil {
		return nil, fmt.Errorf("relay: trailing bytes after the last weight section")
	} else if err != io.EOF {
		return nil, fmt.Errorf("relay: %w", err)
	}
	return ToGraph(m, name, weights)
}

// readSection reads one weight section. left is the byte count the stream
// still holds, or negative when unknown.
func readSection(br *bufio.Reader, left *int64) (*tensor.Tensor, error) {
	var rank uint32
	if err := binary.Read(br, binary.LittleEndian, &rank); err != nil {
		return nil, noEOF(err)
	}
	if rank > 64 { // bounds the dims a corrupt file can make the reader hold
		return nil, fmt.Errorf("rank %d", rank)
	}
	dims := make([]uint32, rank)
	if err := binary.Read(br, binary.LittleEndian, dims); err != nil {
		return nil, noEOF(err)
	}
	shape, n := make([]int, rank), 1
	for i, d := range dims {
		if d != 0 && n > math.MaxInt/4/int(d) {
			return nil, fmt.Errorf("shape overflows at dim %d", i)
		}
		shape[i], n = int(d), n*int(d)
	}
	if *left >= 0 {
		if *left -= 4 + 4*int64(rank) + 4*int64(n); *left < 0 {
			return nil, fmt.Errorf("shape %v declares %d values, more than the stream holds", shape, n)
		}
	}
	t := tensor.New(shape...)
	for xs := t.Data(); len(xs) > 0; {
		k := min(len(xs), br.Size()/4)
		b, err := br.Peek(4 * k)
		if err != nil {
			return nil, fmt.Errorf("shape %v: %w", shape, noEOF(err))
		}
		for i := range xs[:k] {
			xs[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
		}
		br.Discard(4 * k)
		xs = xs[k:]
	}
	return t, nil
}

// noEOF turns a clean end of stream into io.ErrUnexpectedEOF: every read
// here is of bytes the file promised.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// streamSize reports how many bytes r holds from its current position, or
// -1 when it cannot tell.
func streamSize(r io.Reader) int64 {
	if x, ok := r.(interface{ Len() int }); ok {
		return int64(x.Len())
	}
	if f, ok := r.(*os.File); ok {
		fi, err1 := f.Stat()
		pos, err2 := f.Seek(0, io.SeekCurrent)
		if err1 == nil && err2 == nil && fi.Mode().IsRegular() {
			return fi.Size() - pos
		}
	}
	return -1
}
