package server

import (
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"testing"

	"skysql"
)

// TestPanicInHandlerAnswers500 mounts panicking routes on the server's
// mux: a panic before the response starts is answered 500 "internal" and
// counted, and the server keeps serving; http.ErrAbortHandler and a panic
// after the response started still abort the connection, uncounted.
func TestPanicInHandlerAnswers500(t *testing.T) {
	sess := skysql.NewSession()
	defer sess.Close()
	s := New(sess)
	s.mux.HandleFunc("/boom", func(http.ResponseWriter, *http.Request) { panic("boom") })
	s.mux.HandleFunc("/abort", func(http.ResponseWriter, *http.Request) { panic(http.ErrAbortHandler) })
	s.mux.HandleFunc("/late", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte("{"))
		panic("after the status line")
	})
	ts := httptest.NewUnstartedServer(s)
	ts.Config.ErrorLog = log.New(io.Discard, "", 0) // net/http logs the re-raised panics
	ts.Start()
	defer ts.Close()
	c := ts.Client()

	resp, err := c.Get(ts.URL + "/boom")
	if err != nil {
		t.Fatal(err)
	}
	var e ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatalf("decoding the 500 body: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError || e.Code != "internal" {
		t.Fatalf("panicking handler: %d %+v, want 500 internal", resp.StatusCode, e)
	}

	if resp, err := c.Get(ts.URL + "/abort"); err == nil {
		resp.Body.Close()
		t.Fatalf("ErrAbortHandler answered %d; the connection must be aborted", resp.StatusCode)
	}
	if resp, err := c.Get(ts.URL + "/late"); err == nil {
		_, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err == nil {
			t.Fatal("a panic after the response started must abort it, not complete it")
		}
	}

	resp, err = c.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz after a panic: %d, want 200", resp.StatusCode)
	}
	resp, err = c.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Server.Errors != 1 {
		t.Errorf("errors_total = %d, want 1 (the contained panic only)", st.Server.Errors)
	}
}
