(** Circuit description: named nodes and elements.

    Node ["0"] (alias ["gnd"]) is ground. A netlist is immutable once
    built; analyses never mutate it. *)

type node = string

type element =
  | Resistor of { name : string; p : node; n : node; r : float }
  | Capacitor of { name : string; p : node; n : node; c : float }
  | Inductor of { name : string; p : node; n : node; l : float }
  | Vsource of { name : string; p : node; n : node; wave : Wave.t; ac : float }
  | Isource of { name : string; p : node; n : node; wave : Wave.t; ac : float }
      (** current flows p → n through the source when positive *)
  | Mosfet of {
      name : string;
      d : node;
      g : node;
      s : node;
      model : Mosfet.params;
      w : float;
      l : float;
    }

type t = { elements : element list }

val of_elements : element list -> t

val nodes : t -> node list
(** All non-ground nodes, sorted, deduplicated. *)

val is_ground : node -> bool

val element_name : element -> string

val validate : t -> (unit, string) result
(** Structural checks: unique names, positive R/C/L values, positive
    MOS geometry. *)

(* Convenience constructors *)

val r : string -> node -> node -> float -> element
val c : string -> node -> node -> float -> element
val l : string -> node -> node -> float -> element
val vdc : string -> node -> node -> float -> element
val vac : string -> node -> node -> dc:float -> mag:float -> element
val vwave : string -> node -> node -> Wave.t -> element
val nmos : string -> d:node -> g:node -> s:node -> ?model:Mosfet.params ->
  w:float -> l:float -> unit -> element
val pmos : string -> d:node -> g:node -> s:node -> ?model:Mosfet.params ->
  w:float -> l:float -> unit -> element
