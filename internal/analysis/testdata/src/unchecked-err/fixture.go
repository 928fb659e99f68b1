package fixture

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"strings"
)

func dropped(f *os.File) {
	f.Close() // want "call of f.Close drops its error"
}

func deferred(f *os.File) {
	defer f.Close() // want "defer of f.Close drops its error"
}

func inGoroutine(f *os.File, done chan struct{}) {
	go f.Sync() // want "go of f.Sync drops its error"
	<-done
}

func droppedFunc() {
	mayFail() // want "call of mayFail drops its error"
}

func checked(f *os.File) error {
	return f.Close() // ok: propagated
}

func explicitDiscard(f *os.File) {
	_ = f.Close() // ok: visible, deliberate discard
}

func allowlisted(b *strings.Builder, buf *bytes.Buffer) {
	fmt.Println("hi")           // ok: stdout printing
	fmt.Fprintf(os.Stderr, "x") // ok: stderr printing
	fmt.Fprintf(b, "x")         // ok: strings.Builder never fails
	fmt.Fprintln(buf, "y")      // ok: bytes.Buffer never fails
	b.WriteByte('z')            // ok: Builder method
	buf.WriteString("w")        // ok: Buffer method
	var sb strings.Builder
	sb.WriteString("v") // ok: value receiver resolves too
	_ = sb.String()
}

func noError() {
	plain() // ok: no error in signature
}

func mayFail() error { return errors.New("boom") }

func plain() {}
