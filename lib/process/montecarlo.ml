type device = {
  device_name : string;
  params : Variation.param array;
  spec_count : int;
  simulate : float array -> float array option;
}

type dataset = {
  inputs : float array array;
  specs : float array array;
  weights : float array;
  discarded : int;
}

exception Too_many_failures of string

let uniform_weights n = Array.make n 1.0

let check_spec_count device values =
  if Array.length values <> device.spec_count then
    invalid_arg "Montecarlo: simulate returned wrong spec count"

let max_failures_for ratio n = Stdlib.max 10 (int_of_float (ratio *. float_of_int n))

let too_many_failures device ~failed ~n =
  raise
    (Too_many_failures
       (Printf.sprintf "%s: %d failed draws for %d requested instances"
          device.device_name failed n))

(* The private stream of draw [attempt] of instance [index] under
   [seed]. The triple is hashed one component at a time through the
   splitmix64 finaliser; a linear mix (seed + index·k₁ + attempt·k₂)
   would make seed s + k₁ replay seed s shifted by one instance. As
   the stream depends on nothing else, scheduling cannot change the
   data. *)
let instance_rng ~seed ~index ~attempt =
  let module Rng = Stc_numerics.Rng in
  let absorb h x = Rng.mix (Int64.logxor h (Int64.of_int x)) in
  Rng.create (Int64.to_int (absorb (absorb (absorb 0L seed) index) attempt))

let resolve_domains = function
  | Some d when d >= 1 -> d
  | Some _ -> invalid_arg "Montecarlo: domains must be >= 1"
  | None -> Domain.recommended_domain_count ()

let generate_parallel ?(max_failure_ratio = 0.5) ?domains ?draw ~seed device
    ~n =
  if n <= 0 then invalid_arg "Montecarlo.generate_parallel: n must be positive";
  let domains = resolve_domains domains in
  let draw =
    match draw with
    | Some draw -> draw
    | None -> fun rng -> Variation.sample_all rng device.params
  in
  let max_failures = max_failures_for max_failure_ratio n in
  let inputs = Array.make n [||] in
  let specs = Array.make n [||] in
  let failures = Atomic.make 0 in
  let simulate_instance i =
    (* retry draws within this instance's private sub-streams; no
       further simulation is launched once the failure cap has been
       crossed (pinned by test_process "failure cap aborts promptly") *)
    let rec attempt_loop attempt =
      if Atomic.get failures > max_failures then ()
      else begin
        let params = draw (instance_rng ~seed ~index:i ~attempt) in
        match device.simulate params with
        | Some values ->
          check_spec_count device values;
          inputs.(i) <- params;
          specs.(i) <- values
        | None ->
          Atomic.incr failures;
          attempt_loop (attempt + 1)
      end
    in
    attempt_loop 0
  in
  Pool.with_pool ~domains (fun pool -> Pool.run pool ~n simulate_instance);
  if Atomic.get failures > max_failures then
    too_many_failures device ~failed:(Atomic.get failures) ~n;
  { inputs; specs; weights = uniform_weights n; discarded = Atomic.get failures }

(* [discarded] is population-level simulation-yield accounting; a slice
   carries its proportional share (rounded down) so that the two halves
   of a [split] sum exactly to the original count. *)
let discarded_share d n =
  let total = Array.length d.inputs in
  if total = 0 then 0 else d.discarded * n / total

let take d n =
  if n < 0 || n > Array.length d.inputs then
    invalid_arg "Montecarlo.take: out of range";
  {
    inputs = Array.sub d.inputs 0 n;
    specs = Array.sub d.specs 0 n;
    weights = Array.sub d.weights 0 n;
    discarded = discarded_share d n;
  }

let split d ~at =
  let total = Array.length d.inputs in
  if at < 0 || at > total then invalid_arg "Montecarlo.split: out of range";
  let left = take d at in
  ( left,
    {
      inputs = Array.sub d.inputs at (total - at);
      specs = Array.sub d.specs at (total - at);
      weights = Array.sub d.weights at (total - at);
      discarded = d.discarded - left.discarded;
    } )

let spec_column d j = Array.map (fun row -> row.(j)) d.specs
