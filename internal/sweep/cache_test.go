package sweep

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestCacheSingleflight(t *testing.T) {
	c := NewCache()
	var computes atomic.Int32
	var wg sync.WaitGroup
	start := make(chan struct{})
	const callers = 32
	vals := make([]any, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			v, err, _ := c.Do("k", func() (any, error) {
				computes.Add(1)
				time.Sleep(5 * time.Millisecond) // widen the in-flight window
				return 42, nil
			})
			if err != nil {
				t.Error(err)
			}
			vals[i] = v
		}(i)
	}
	close(start)
	wg.Wait()
	if computes.Load() != 1 {
		t.Errorf("computed %d times under contention", computes.Load())
	}
	for i, v := range vals {
		if v.(int) != 42 {
			t.Errorf("caller %d got %v", i, v)
		}
	}
}

func TestCacheCachesErrors(t *testing.T) {
	c := NewCache()
	boom := errors.New("diverged")
	var computes atomic.Int32
	for i := 0; i < 3; i++ {
		_, err, _ := c.Do("bad", func() (any, error) {
			computes.Add(1)
			return nil, boom
		})
		if !errors.Is(err, boom) {
			t.Fatalf("call %d: err = %v", i, err)
		}
	}
	if computes.Load() != 1 {
		t.Errorf("error recomputed %d times", computes.Load())
	}
}

func TestCacheDistinctKeys(t *testing.T) {
	c := NewCache()
	for _, k := range []string{"a", "b", "c"} {
		k := k
		v, _, _ := c.Do(k, func() (any, error) { return k + "!", nil })
		if v.(string) != k+"!" {
			t.Errorf("key %q returned %v", k, v)
		}
	}
	if c.Len() != 3 {
		t.Errorf("len = %d", c.Len())
	}
}

func TestCachePanicReleasesWaiters(t *testing.T) {
	c := NewCache()
	var wg sync.WaitGroup
	inFlight := make(chan struct{})
	// First caller panics mid-compute.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer func() { recover() }()
		c.Do("p", func() (any, error) {
			close(inFlight)
			time.Sleep(5 * time.Millisecond)
			panic("solver bug")
		})
	}()
	<-inFlight
	// Second caller must be released with an error, not deadlock.
	done := make(chan error, 1)
	go func() {
		_, err, _ := c.Do("p", func() (any, error) { return nil, nil })
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Error("waiter got no error from panicked compute")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("waiter deadlocked behind a panicked compute")
	}
	wg.Wait()
}
