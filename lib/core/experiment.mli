(** Packaged experiment configurations for the paper's two devices:
    the op-amp (Table 1, Figures 5–6) and the MEMS accelerometer
    (Tables 2–3). Everything is deterministic given a seed. *)

(** {1 Operational amplifier} *)

val opamp_specs : Spec.t array
(** The eleven Table 1 specifications with the paper's nominal values
    and acceptability ranges. *)

val opamp_device : unit -> Stc_process.Montecarlo.device
(** ±10 % uniform variation on every MOSFET W and L and both
    capacitors (14 parameters), simulated through the six test benches.
    Each measured spec is mapped onto the paper's nominal scale (see
    {!Calibration}); the factors are fitted on the first call in the
    process, which simulates the nominal device, and [simulate] is then
    safe to call from several domains at once. *)

val opamp_params_of_draw : float array -> Stc_circuit.Opamp.params
(** The sizing one draw of {!opamp_device}'s parameters gives: the W and
    L of M1, M3, M5, M6, M7 and M8, then Cc and CL, in the draw's order,
    the rest nominal. *)

val opamp_examination_order : int array
(** Device-functionality examination order (the paper's strategy): the
    specs most entangled with others first. *)

val generate_opamp :
  seed:int -> n_train:int -> n_test:int -> unit -> Device_data.t * Device_data.t
(** Monte-Carlo training and test populations: one
    {!Stc_process.Montecarlo.generate_parallel} population of
    [n_train + n_test] instances, split. Deterministic per seed, at any
    domain count. *)

(** {1 Boundary-biased enrichment} *)

val spec_limits : Spec.t array -> (float * float) array
(** The [(lower, upper)] acceptance limits of each spec, in the shape
    {!Stc_process.Enrich.generate} expects. *)

val generate_opamp_enriched :
  ?config:Stc_process.Enrich.config ->
  ?domains:int ->
  seed:int ->
  pilot:int ->
  n_train:int ->
  n_test:int ->
  unit ->
  Device_data.t * Device_data.t * Stc_process.Enrich.stats
(** Boundary-enriched op-amp training population (with importance
    weights attached) plus a uniform test population drawn from an
    independent stream family derived from [seed]. Deterministic per
    seed at any domain count. *)

(** {1 MEMS accelerometer} *)

val mems_room_specs : Spec.t array
(** The five Table 2 specifications (room temperature). *)

val mems_specs : Spec.t array
(** All fifteen: the Table 2 five at room, cold (−40 °C) and hot
    (80 °C), in that block order. *)

val mems_cold_indices : int array
(** Column indices of the cold-temperature specs within {!mems_specs}. *)

val mems_hot_indices : int array

val mems_device : unit -> Stc_process.Montecarlo.device
(** ±10 % uniform variation on each spring's length, width and
    orientation angle, the plate dimensions, the comb gap and overlap
    (16 parameters). Calibrated like {!opamp_device}: the factors are
    resolved when the device is built. *)

val generate_mems :
  seed:int -> n_train:int -> n_test:int -> unit -> Device_data.t * Device_data.t
(** As {!generate_opamp}, on the MEMS device and specs. *)

(** {1 Defaults} *)

val opamp_config : Compaction.config
(** ε-SVR, tolerance 1 %, guard band ±1 % (the paper's op-amp guard). *)

val mems_config : Compaction.config
(** ε-SVR, tolerance 1 %, guard band ±2.5 % (the paper's MEMS guard). *)
