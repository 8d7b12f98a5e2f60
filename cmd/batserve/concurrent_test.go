package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"libbat"
	"libbat/internal/leakcheck"
)

// TestOverlappingQueries fires many simultaneous /points requests at one
// dataset. With the read lock replacing the old global mutex they execute
// concurrently; every response must be complete and, since a query
// delivers in one order at every worker count, byte-identical. Run under
// -race via check.sh.
func TestOverlappingQueries(t *testing.T) {
	s, total := testServer(t)
	s.qcfg = libbat.QueryConfig{Workers: 4}
	ts := httptest.NewServer(s.routes())
	defer ts.Close()

	get := func(url string) ([]byte, error) {
		resp, err := http.Get(url)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("status %d: %s", resp.StatusCode, body)
		}
		return body, nil
	}

	want, err := get(ts.URL + "/points")
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != total*12 {
		t.Fatalf("full stream is %d bytes, want %d", len(want), total*12)
	}

	const clients = 10
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			url := ts.URL + "/points"
			if i%3 == 1 {
				url += "?box=0,0,0,2.5,1,1"
			}
			body, err := get(url)
			if err != nil {
				errs <- fmt.Errorf("client %d: %v", i, err)
				return
			}
			if i%3 == 1 {
				if len(body) == 0 || len(body)%12 != 0 {
					errs <- fmt.Errorf("client %d: box stream %d bytes", i, len(body))
				}
				return
			}
			if !bytes.Equal(body, want) {
				errs <- fmt.Errorf("client %d: full stream differs (%d vs %d bytes)", i, len(body), len(want))
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestCloseDuringQueries interleaves closeDatasets with a stream of
// /points and /info requests: the write lock must wait out in-flight
// queries, and later requests must transparently reopen the dataset.
func TestCloseDuringQueries(t *testing.T) {
	leakcheck.Check(t)
	s, total := testServer(t)
	s.qcfg = libbat.QueryConfig{Workers: 2}
	ts := httptest.NewServer(s.routes())
	defer ts.Close()

	const clients, rounds = 6, 4
	var wg sync.WaitGroup
	errs := make(chan error, clients*rounds+1)
	done := make(chan struct{})
	closerDone := make(chan struct{})

	go func() {
		defer close(closerDone)
		for {
			select {
			case <-done:
				return
			default:
				s.closeDatasets()
			}
		}
	}()

	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				url := ts.URL + "/points"
				if i%2 == 1 {
					url = ts.URL + "/info"
				}
				resp, err := http.Get(url)
				if err != nil {
					errs <- err
					continue
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					errs <- err
					continue
				}
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("client %d round %d: status %d: %s", i, r, resp.StatusCode, body)
					continue
				}
				if i%2 == 0 && len(body) != total*12 {
					errs <- fmt.Errorf("client %d round %d: %d bytes, want %d", i, r, len(body), total*12)
				}
			}
		}(i)
	}
	// Stop the closer only after all clients finish, so closes overlap the
	// whole request stream.
	wg.Wait()
	close(done)
	<-closerDone
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
