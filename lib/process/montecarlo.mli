(** Monte-Carlo training/test instance generation — the Figure 1 flow
    of the paper: draw a parameter vector from the process model,
    simulate the device, record the measured specification values. *)

type device = {
  device_name : string;
  params : Variation.param array;
  spec_count : int;
  simulate : float array -> float array option;
      (** [simulate params] returns the measured spec values, or [None]
          when the instance fails to simulate (e.g. a broken bias
          point); such draws are discarded and redrawn, like a die that
          shorts out on the tester. *)
}

type dataset = {
  inputs : float array array;  (** parameter vectors, one per instance *)
  specs : float array array;   (** measured spec values, one per instance *)
  weights : float array;
      (** importance weights, one per instance; all 1.0 for uniform
          sampling, set by {!Enrich} for boundary-biased populations so
          that weighted statistics stay unbiased *)
  discarded : int;             (** draws rejected because simulation failed *)
}

exception Too_many_failures of string
(** Its message names the device, its failed draws, the instances asked
    for and the cap they went over. *)

val instance_rng : seed:int -> index:int -> attempt:int -> Stc_numerics.Rng.t
(** The private stream of draw [attempt] of instance [index] under
    [seed]: the triple hashed through {!Stc_numerics.Rng.mix}. Exposed
    so {!Enrich} can bias the sampler while keeping the stream
    deterministic at any domain count. *)

val resolve_domains : int option -> int
(** The domain count a generator runs on: [Some d] is [d] (raising
    [Invalid_argument] when [d < 1]); [None] is
    [Domain.recommended_domain_count ()], every core, since the
    submitting domain runs tasks too. *)

val generate_parallel :
  ?max_failure_ratio:float ->
  ?domains:int ->
  ?draw:(Stc_numerics.Rng.t -> float array) ->
  seed:int ->
  device ->
  n:int ->
  dataset
(** Draws until [n] instances simulate successfully. Draw [attempt] of
    instance [i] (attempts count that instance's failed simulations)
    samples its parameters by [draw] from
    [instance_rng ~seed ~index:i ~attempt], so the dataset is the same
    at any [domains] (default {!resolve_domains}[ None]); [~domains:1]
    is the serial run. [draw] defaults to
    [Variation.sample_all rng device.params]; {!Process_model} passes
    its correlated and defect-injecting samplers. It is called from
    several domains at once.

    Raises [Too_many_failures] as soon as failures exceed
    [max_failure_ratio]·n (default 0.5, floor of 10) — a guard against
    a device that never simulates. No further simulation is launched
    once the cap is crossed. *)

val split : dataset -> at:int -> dataset * dataset
(** Splits into the first [at] instances and the rest. [discarded] is
    apportioned proportionally: the left half carries
    [discarded·at/total] (rounded down) and the right half the
    remainder, so the two sides always sum to the original count. *)

val take : dataset -> int -> dataset
(** First [n] instances, carrying the proportional share of
    [discarded] (see {!split}). *)

val spec_column : dataset -> int -> float array
