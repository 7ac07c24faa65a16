(* Kept for the benchmark harness only (see the interface); the next
   change to the benchmark deletes it. *)

type t = Soda_obs.Metrics.t

let counter = Soda_obs.Metrics.counter
let histogram = Soda_obs.Metrics.histogram
let time_us = Soda_obs.Metrics.counter
