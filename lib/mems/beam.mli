(** Folded-flexure suspension beams: Euler–Bernoulli stiffness with
    axial-load (stress) stiffening.

    Each flexure is modelled as a fixed–guided beam of length [length],
    in-plane width [width] and out-of-plane thickness [thickness]; the
    compliant direction is perpendicular to the beam axis, in plane. *)

type t = {
  length : float;     (** m *)
  width : float;      (** m *)
  thickness : float;  (** m *)
}

val lateral_stiffness : ?strain:float -> t -> temp:float -> float
(** In-plane bending stiffness, N/m: [E t w³ / L³] times the axial-load
    stiffening factor [1 + 12 ε (L/w)² / π²] where ε is the axial
    strain ([strain] overrides the thermal strain of the material at
    [temp]; tension ε > 0 stiffens, compression softens). Result is
    clamped at a small positive floor — a beam past buckling no longer
    follows the linear model, and clamping keeps downstream analyses
    defined. *)

val axial_stiffness : t -> temp:float -> float
(** Axial (stretching) stiffness of a straight beam [E t w / L], N/m. *)

val folded_axial_stiffness : t -> temp:float -> float
(** Stiff-direction stiffness of the *folded* suspension: the load path
    runs through bending of the folding truss, not axial stretch, so it
    is a multiple of the lateral stiffness rather than [E t w / L]: 100
    times [E t w³ / L³] (typical folded-flexure anisotropy). *)

val buckling_strain : t -> float
(** Compressive strain magnitude at which the lateral stiffness would
    reach zero: [π² w² / (12 L²)]. *)

val mass : t -> float
(** Beam mass, kg. *)
