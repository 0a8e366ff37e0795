package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"repro/internal/types"
)

// helloBytes encodes the connection preamble for sender.
func helloBytes(magic, version uint32, sender types.NodeID) []byte {
	b := make([]byte, helloSize)
	binary.BigEndian.PutUint32(b[0:4], magic)
	binary.BigEndian.PutUint32(b[4:8], version)
	binary.BigEndian.PutUint32(b[8:12], uint32(int32(sender)))
	return b
}

// frameBytes encodes one frame whose header claims size bytes of payload.
func frameBytes(size uint32, sender types.NodeID, payload string) []byte {
	b := make([]byte, frameHeader, frameHeader+len(payload))
	binary.BigEndian.PutUint32(b[0:4], size)
	binary.BigEndian.PutUint32(b[4:8], uint32(int32(sender)))
	return append(b, payload...)
}

func cat(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

// FuzzFrameStream throws arbitrary bytes at what an inbound connection
// reads after the TLS handshake: the hello, then the frame loop. Each
// frame is checked against an independent reading of the input. The
// properties: the reader never panics; a bad hello rejects the stream
// before any frame is read; no frame naming a sender other than the
// hello's is delivered; and a frame longer than maxFrameSize is refused.
func FuzzFrameStream(f *testing.F) {
	good := helloBytes(helloMagic, helloVersion, 1)
	f.Add(cat(good, frameBytes(3, 1, "abc"), frameBytes(0, 1, ""), frameBytes(2, 1, "hi")))
	f.Add(cat(good, frameBytes(3, 1, "abc"), frameBytes(3, 2, "xyz")))           // foreign sender
	f.Add(cat(good, frameBytes(maxFrameSize+1, 1, "")))                          // oversized
	f.Add(cat(good, frameBytes(10, 1, "short")))                                 // truncated payload
	f.Add(cat(helloBytes(helloMagic+1, helloVersion, 1), frameBytes(1, 1, "x"))) // bad magic
	f.Add(cat(helloBytes(helloMagic, helloVersion+1, 1), frameBytes(1, 1, "x"))) // bad version
	f.Add(good[:helloSize-1])                                                    // truncated hello
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		from, err := readHello(r)
		helloOK := len(data) >= helloSize &&
			binary.BigEndian.Uint32(data[0:4]) == helloMagic &&
			binary.BigEndian.Uint32(data[4:8]) == helloVersion
		if (err == nil) != helloOK {
			t.Fatalf("readHello err = %v on a hello that is valid=%v", err, helloOK)
		}
		if !helloOK {
			return // rejected: serveConn closes the stream with no frame read
		}
		if consumed := len(data) - r.Len(); consumed != helloSize {
			t.Fatalf("readHello consumed %d bytes, want exactly the %d-byte hello", consumed, helloSize)
		}
		if want := types.NodeID(int32(binary.BigEndian.Uint32(data[8:12]))); from != want {
			t.Fatalf("hello names %v, readHello returned %v", want, from)
		}

		rest := data[helloSize:]
		var got [][]byte
		err = readFrames(r, from, func(p []byte) bool {
			got = append(got, p)
			return true
		})
		// Independent reading: deliver whole frames of from, stop at the
		// first foreign, oversized or truncated one.
		var want [][]byte
		var wantErr error
		for {
			if len(rest) < frameHeader {
				wantErr = io.EOF
				if len(rest) > 0 {
					wantErr = io.ErrUnexpectedEOF
				}
				break
			}
			size := binary.BigEndian.Uint32(rest[0:4])
			if types.NodeID(int32(binary.BigEndian.Uint32(rest[4:8]))) != from {
				wantErr = errForeignSender
				break
			}
			if size > maxFrameSize {
				wantErr = errFrameTooLarge
				break
			}
			if uint64(len(rest)-frameHeader) < uint64(size) {
				wantErr = io.ErrUnexpectedEOF
				if len(rest) == frameHeader {
					wantErr = io.EOF
				}
				break
			}
			want = append(want, rest[frameHeader:frameHeader+int(size)])
			rest = rest[frameHeader+int(size):]
		}
		if !errors.Is(err, wantErr) {
			t.Fatalf("readFrames ended with %v, want %v", err, wantErr)
		}
		if len(got) != len(want) {
			t.Fatalf("delivered %d frames, want %d", len(got), len(want))
		}
		for i := range got {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("frame %d = %q, want %q", i, got[i], want[i])
			}
		}
	})
}
