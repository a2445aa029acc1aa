package rrfd

import (
	"repro/internal/chaos"
	"repro/internal/serve"
)

// ---- Agreement service (internal/serve) ----

type (
	// ServiceConfig shapes one agreement-service node: mesh membership,
	// client listener, WAL directory and fsync policy, admission bound,
	// request deadline and instance TTL.
	ServiceConfig = serve.Config

	// ServiceServer is one serving node: it multiplexes many concurrent
	// k-set agreement instances over a single TCP mesh, journals
	// proposals and decisions before acknowledging them, and sheds load
	// past its in-flight bound.
	ServiceServer = serve.Server

	// ServiceClientConfig shapes a retrying client: attempt budget,
	// per-attempt timeout, seeded backoff ladder.
	ServiceClientConfig = serve.ClientConfig

	// ServiceClusterConfig shapes an in-process loopback cluster for
	// tests, load tools and campaigns.
	ServiceClusterConfig = serve.ClusterConfig

	// ServeChaosConfig tunes the kill-and-recover service campaign.
	ServeChaosConfig = chaos.ServeConfig
)

// ServiceDecided is the response status of a decided instance.
const ServiceDecided = serve.StatusDecided

var (
	// StartService brings one serving node up (replaying its WAL first).
	StartService = serve.Start

	// NewServiceClient connects a retrying client to one serving node.
	NewServiceClient = serve.NewClient

	// StartServiceCluster brings up n loopback serving nodes with
	// kill-and-restart support.
	StartServiceCluster = serve.StartCluster

	// NewServiceAuditor returns an empty auditor of reported decisions
	// against the service's promises: idempotency, k-agreement, validity.
	NewServiceAuditor = serve.NewAuditor

	// PlantServiceLoad draws a whole seeded client load — every client's
	// instances, values, server pins and request IDs — which its Drive
	// submits over a worker pool of retrying clients and its Tally feeds
	// to an auditor.
	PlantServiceLoad = serve.PlantLoad

	// RunServeChaos runs one kill-and-recover service campaign: seeded
	// client load, a mid-batch victim kill, a journal audit, a restart,
	// and a full idempotent replay.
	RunServeChaos = chaos.RunServe
)
