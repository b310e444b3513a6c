// Command sdvmd runs one SDVM site daemon over TCP — the program "to be
// run on every participating machine" (paper §4).
//
// Start a new cluster:
//
//	sdvmd -listen 192.168.1.10:7000
//
// Join an existing one from any other machine (paper §3.4: "only the
// SDVM daemon has to be started and the (ip) address of a site which is
// already part of the cluster provided"):
//
//	sdvmd -listen 192.168.1.11:7000 -join 192.168.1.10:7000
//
// Further flags configure the paper's tunables: -secret enables the
// security manager (same value on every site), -platform and -speed
// simulate heterogeneous hardware, -window sets the latency-hiding
// window, -checkpoint/-heartbeat enable crash management.
//
// The daemon prints a status line periodically and performs the paper's
// controlled sign-off (relocating all microframes and memory) on SIGINT.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	sdvm "repro"
	_ "repro/internal/workloads" // register the standard workloads
)

func main() {
	var (
		listen     = flag.String("listen", "127.0.0.1:7000", "address this site's network manager binds")
		join       = flag.String("join", "", "address of any current cluster member; empty bootstraps a new cluster")
		secret     = flag.String("secret", "", "cluster start password; enables AES-GCM on all traffic")
		platform   = flag.Uint("platform", 0, "simulated platform id (sites only execute matching binaries)")
		speed      = flag.Float64("speed", 1.0, "relative processing speed")
		window     = flag.Int("window", 5, "latency-hiding window (paper: 5)")
		checkpoint = flag.Duration("checkpoint", 0, "checkpoint interval (0 = off)")
		heartbeat  = flag.Duration("heartbeat", 0, "crash-detection heartbeat (0 = off)")
		status     = flag.Duration("status", 5*time.Second, "status print interval (0 = quiet)")
		simulated  = flag.Bool("simwork", false, "simulate Work by sleeping instead of burning CPU")
		metrics    = flag.Bool("metrics", false, "enable the metrics registry (queryable via sdvmstat -metrics)")
		metricsAt  = flag.String("metrics-addr", "", "also serve metrics as JSON over HTTP at host:port (implies -metrics)")
	)
	flag.Parse()

	opts := sdvm.Options{
		Addr:            *listen,
		Secret:          *secret,
		Platform:        sdvm.PlatformID(*platform),
		Speed:           *speed,
		Window:          *window,
		CheckpointEvery: *checkpoint,
		HeartbeatEvery:  *heartbeat,
		SimulatedWork:   *simulated,
		Metrics:         *metrics,
		MetricsAddr:     *metricsAt,
	}

	var (
		site *sdvm.Site
		err  error
	)
	if *join == "" {
		site, err = sdvm.Bootstrap(opts)
		if err == nil {
			fmt.Printf("sdvmd: bootstrapped new cluster as %v on %s\n", site.ID(), *listen)
		}
	} else {
		site, err = sdvm.Join(*join, opts)
		if err == nil {
			fmt.Printf("sdvmd: joined cluster via %s as %v\n", *join, site.ID())
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "sdvmd: %v\n", err)
		os.Exit(1)
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)

	var ticker *time.Ticker
	var tick <-chan time.Time
	if *status > 0 {
		ticker = time.NewTicker(*status)
		tick = ticker.C
		defer ticker.Stop()
	}

	for {
		select {
		case <-tick:
			fmt.Printf("sdvmd: %v\n", site.Status())
		case sig := <-sigs:
			fmt.Printf("sdvmd: %v — signing off (relocating microframes and memory)\n", sig)
			if err := site.SignOff(); err != nil {
				fmt.Fprintf(os.Stderr, "sdvmd: sign-off: %v\n", err)
				os.Exit(1)
			}
			fmt.Println("sdvmd: signed off cleanly")
			return
		}
	}
}
