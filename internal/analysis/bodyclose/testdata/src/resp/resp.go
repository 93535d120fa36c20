// Package resp exercises bodyclose across the leak shapes the cluster
// clients could regress into, plus the idioms that must stay quiet.
package resp

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
)

var client http.Client

// --- leaks ---

func leakPlain(req *http.Request) error {
	resp, err := client.Do(req) // want "response body is not closed on every path"
	if err != nil {
		return err
	}
	fmt.Println(resp.Status)
	return nil
}

// leakOnStatusCheck is the classic shape: the early return sits above
// the close. This mirrors what the coordinator's cacheGet would look
// like with its defer misplaced.
func leakOnStatusCheck(ctx context.Context, node, key string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, node+"/v1/cache/"+key, nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req) // want "response body is not closed on every path"
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("http %d", resp.StatusCode) // leaks: Close never runs
	}
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

func leakReadWithoutClose(url string) error {
	resp, err := http.Get(url) // want "response body is not closed on every path"
	if err != nil {
		return err
	}
	var v struct{}
	return json.NewDecoder(resp.Body).Decode(&v) // reading is not closing
}

func leakDiscarded(req *http.Request) {
	client.Do(req) // want "http response discarded"
}

func leakBlank(req *http.Request) error {
	_, err := client.Do(req) // want "http response discarded"
	return err
}

func leakOneBranch(req *http.Request, verbose bool) error {
	resp, err := client.Do(req) // want "response body is not closed on every path"
	if err != nil {
		return err
	}
	if verbose {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	return nil // the quiet branch leaks
}

// --- closed correctly ---

func closedWithDefer(req *http.Request) error {
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("http %d", resp.StatusCode)
	}
	_, err = io.ReadAll(resp.Body)
	return err
}

// closedExplicitly is the drain-then-close shape the replication client
// uses for PUTs.
func closedExplicitly(req *http.Request) error {
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode >= 300 {
		return fmt.Errorf("http %d", resp.StatusCode)
	}
	return nil
}

func closedInDeferredClosure(url string) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	_, err = io.ReadAll(resp.Body)
	return err
}

func closedPerIteration(urls []string) error {
	for _, u := range urls {
		resp, err := http.Get(u)
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	return nil
}

func errorPathNeedsNoClose(req *http.Request) ([]byte, error) {
	resp, err := client.Do(req)
	if err != nil {
		return nil, err // resp is nil here; nothing to close
	}
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

func invertedErrCheck(req *http.Request) error {
	resp, err := client.Do(req)
	if err == nil {
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
	}
	return err
}

// --- ownership escapes ---

func escapesByReturn(req *http.Request) (*http.Response, error) {
	return client.Do(req) // direct return: caller owns the body
}

func escapesByReturnVar(req *http.Request) (*http.Response, error) {
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	return resp, nil
}

func consume(r *http.Response) { r.Body.Close() }

func escapesAsArgument(req *http.Request) error {
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	consume(resp)
	return nil
}

func escapesIntoClosure(req *http.Request) (func(), error) {
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	return func() { resp.Body.Close() }, nil
}

// --- suppression ---

func reviewedSuppression(req *http.Request) error {
	//tlrob:allow(long-poll stream: body intentionally left open, closed by the reader goroutine's owner)
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	fmt.Println(resp.Status)
	return nil
}
