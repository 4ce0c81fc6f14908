// Streaming demonstrates the online mode the paper emphasizes (§3.2, "Our
// algorithm works in a streaming fashion"): events are decoded block by
// block straight into the WCP detector, without ever materializing the
// trace in memory.
//
// The binary trace format carries the thread/lock/variable universe and the
// event count in its header, so the detector state and the block buffer are
// sized up front and memory stays constant no matter how long the trace is
// — the property that lets the paper's tool process hundreds of millions of
// events without windowing. (Text logs don't declare their universe; for
// them a cheap counting pass with NewTraceScanner provides it.)
//
// Run with: go run ./examples/streaming
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"

	"repro"
)

func main() {
	// Produce a binary log file to stream: the xalan workload, small scale.
	bench, _ := repro.BenchmarkByName("xalan")
	tr := bench.Generate(0.2)
	path := filepath.Join(os.TempDir(), "xalan.bin")
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := repro.WriteTraceBinary(f, tr); err != nil {
		log.Fatal(err)
	}
	f.Close()
	defer os.Remove(path)
	info, _ := os.Stat(path)
	fmt.Printf("streaming %d events (%d KiB on disk) from %s\n", tr.Len(), info.Size()/1024, path)

	// Open the stream: the header declares the dimensions before the first
	// event, so everything is sized up front.
	st, err := repro.StreamTraceFile(path)
	if err != nil {
		log.Fatal(err)
	}
	defer st.Close()
	dims, known := st.Dims()
	if !known {
		log.Fatal("binary streams always declare their dimensions")
	}
	fmt.Printf("header: %d events, %d threads, %d locks, %d variables\n",
		dims.Events, dims.Threads, dims.Locks, dims.Vars)

	// Decode block by block straight into the detector, reusing one buffer.
	det := repro.NewWCPDetector(dims.Threads, dims.Locks, dims.Vars,
		repro.WCPOptions{})
	buf := make([]repro.TraceEvent, repro.DefaultStreamBlockSize)
	processed := 0
	for {
		n, err := st.NextBlock(buf)
		for _, e := range buf[:n] {
			det.Process(e)
		}
		processed += n
		if n > 0 {
			r := det.Result()
			fmt.Printf("  after %6d events: %d race pair(s), %d queued times\n",
				processed, r.Report.Distinct(), r.QueueMaxTotal)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			log.Fatal(err)
		}
	}

	res := det.Result()
	fmt.Printf("done: %d events, %d distinct race pair(s), queue high-water %.2f%% of events\n",
		res.Events, res.Report.Distinct(), 100*res.QueueMaxFraction())
	fmt.Println(res.Report.Format(st.Symbols()))
}
