package traceio

import (
	"bufio"
	"io"
	"os"

	"repro/internal/trace"
)

// ReadAuto parses a trace from r, auto-detecting the format: a stream
// beginning with the binary magic is parsed as binary, anything else as the
// line-oriented text format.
func ReadAuto(r io.Reader) (*trace.Trace, error) {
	br := bufio.NewReader(r)
	magic, err := br.Peek(len(binaryMagic))
	if err == nil && string(magic) == binaryMagic {
		return readBinary(&binaryReader{br: br, src: r})
	}
	return readText(br, hintLimit(br.Buffered(), r))
}

// ReadFile parses a trace file, auto-detecting the format.
func ReadFile(path string) (*trace.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadAuto(f)
}
