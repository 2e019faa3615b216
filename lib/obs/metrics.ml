(* Fixed-bucket log-scale histograms: bucket i >= 1 covers
   [min_track * ratio^(i-1), min_track * ratio^i); bucket 0 is the
   underflow bucket (samples <= min_track, including zero and
   negatives), the last bucket collects overflow (>= max_track). *)

let ratio = 1.05
let log_ratio = log ratio
let min_track = 1e-9
let max_track = 1e9

let num_buckets =
  (* underflow + covered range + overflow *)
  2 + int_of_float (ceil (log (max_track /. min_track) /. log_ratio))

type histogram = {
  buckets : int array;
  mutable h_n : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
}

type t = {
  counters : (string, int ref) Hashtbl.t;
  gauges : (string, float ref) Hashtbl.t;
  histograms : (string, histogram) Hashtbl.t;
}

type summary = {
  n : int;
  mean : float;
  min : float;
  max : float;
  p50 : float;
  p95 : float;
  p99 : float;
}

let create () =
  {
    counters = Hashtbl.create 16;
    gauges = Hashtbl.create 8;
    histograms = Hashtbl.create 8;
  }

(* --- counters ------------------------------------------------------------ *)

let add t name k =
  match Hashtbl.find_opt t.counters name with
  | Some r -> r := !r + k
  | None -> Hashtbl.add t.counters name (ref k)

let incr t name = add t name 1

let count t name =
  match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0

let sorted_bindings tbl f =
  Hashtbl.fold (fun k v acc -> (k, f v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let counters t = sorted_bindings t.counters (fun r -> !r)

(* A handle holds the registry's cell once the counter exists there;
   until its first bump it holds a private cell, so resolving a handle
   registers nothing. *)
type counter = {
  c_owner : t;
  c_name : string;
  mutable c_cell : int ref;
  mutable c_live : bool;
}

let counter t name =
  match Hashtbl.find_opt t.counters name with
  | Some r -> { c_owner = t; c_name = name; c_cell = r; c_live = true }
  | None -> { c_owner = t; c_name = name; c_cell = ref 0; c_live = false }

let bump_by c k =
  if not c.c_live then begin
    (match Hashtbl.find_opt c.c_owner.counters c.c_name with
    | Some r -> c.c_cell <- r
    | None -> Hashtbl.add c.c_owner.counters c.c_name c.c_cell);
    c.c_live <- true
  end;
  c.c_cell := !(c.c_cell) + k

let bump c = bump_by c 1

(* --- gauges -------------------------------------------------------------- *)

let gauge_max t name v =
  match Hashtbl.find_opt t.gauges name with
  | Some r -> if v > !r then r := v
  | None -> Hashtbl.add t.gauges name (ref v)

let gauges t = sorted_bindings t.gauges (fun r -> !r)

(* --- histograms ---------------------------------------------------------- *)

let new_histogram () =
  {
    buckets = Array.make num_buckets 0;
    h_n = 0;
    h_sum = 0.0;
    h_min = infinity;
    h_max = neg_infinity;
  }

let bucket_of v =
  if v <= min_track then 0
  else if v >= max_track then num_buckets - 1
  else
    let i = 1 + int_of_float (log (v /. min_track) /. log_ratio) in
    (* guard against float rounding at the bucket edges *)
    if i < 1 then 1 else if i > num_buckets - 2 then num_buckets - 2 else i

(* geometric midpoint of bucket i; callers clamp to the observed range *)
let representative i =
  if i = 0 then min_track
  else min_track *. exp ((float_of_int i -. 0.5) *. log_ratio)

let hist t name =
  match Hashtbl.find_opt t.histograms name with
  | Some h -> h
  | None ->
      let h = new_histogram () in
      Hashtbl.add t.histograms name h;
      h

let add_sample h v =
  let i = bucket_of v in
  h.buckets.(i) <- h.buckets.(i) + 1;
  h.h_n <- h.h_n + 1;
  h.h_sum <- h.h_sum +. v;
  if v < h.h_min then h.h_min <- v;
  if v > h.h_max then h.h_max <- v

(* Lazily registered like [counter]: the histogram is looked up (or
   created) on the first recorded sample, then held. *)
type histogram_handle = {
  h_owner : t;
  h_name : string;
  mutable h_hist : histogram option;
}

let histogram t name =
  { h_owner = t; h_name = name; h_hist = Hashtbl.find_opt t.histograms name }

let record hh v =
  if not (Float.is_nan v) then begin
    let h =
      match hh.h_hist with
      | Some h -> h
      | None ->
          let h = hist hh.h_owner hh.h_name in
          hh.h_hist <- Some h;
          h
    in
    add_sample h v
  end

let hist_quantile h p =
  if h.h_n = 0 then nan
  else if p <= 0.0 then h.h_min
  else if p >= 1.0 then h.h_max
  else begin
    (* nearest-rank: the rank-th smallest sample, 1-based *)
    let rank =
      let r = int_of_float (ceil (p *. float_of_int h.h_n)) in
      if r < 1 then 1 else if r > h.h_n then h.h_n else r
    in
    let i = ref 0 and seen = ref 0 in
    while !seen < rank && !i < num_buckets do
      seen := !seen + h.buckets.(!i);
      if !seen < rank then i := !i + 1
    done;
    let v = representative !i in
    if v < h.h_min then h.h_min else if v > h.h_max then h.h_max else v
  end

let summarize t name =
  match Hashtbl.find_opt t.histograms name with
  | None -> { n = 0; mean = nan; min = nan; max = nan; p50 = nan; p95 = nan; p99 = nan }
  | Some h ->
      if h.h_n = 0 then
        { n = 0; mean = nan; min = nan; max = nan; p50 = nan; p95 = nan; p99 = nan }
      else
        {
          n = h.h_n;
          mean = h.h_sum /. float_of_int h.h_n;
          min = h.h_min;
          max = h.h_max;
          p50 = hist_quantile h 0.5;
          p95 = hist_quantile h 0.95;
          p99 = hist_quantile h 0.99;
        }

let histogram_names t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t.histograms []
  |> List.sort String.compare

(* --- merge --------------------------------------------------------------- *)

let merge a b =
  let out = create () in
  let copy_counters src =
    Hashtbl.iter (fun name r -> add out name !r) src.counters
  in
  copy_counters a;
  copy_counters b;
  let copy_gauges src =
    Hashtbl.iter (fun name r -> gauge_max out name !r) src.gauges
  in
  copy_gauges a;
  copy_gauges b;
  let copy_hists src =
    Hashtbl.iter
      (fun name h ->
        let dst = hist out name in
        Array.iteri (fun i c -> dst.buckets.(i) <- dst.buckets.(i) + c) h.buckets;
        dst.h_n <- dst.h_n + h.h_n;
        dst.h_sum <- dst.h_sum +. h.h_sum;
        if h.h_min < dst.h_min then dst.h_min <- h.h_min;
        if h.h_max > dst.h_max then dst.h_max <- h.h_max)
      src.histograms
  in
  copy_hists a;
  copy_hists b;
  out

(* --- export -------------------------------------------------------------- *)

let to_json t =
  let buf = Buffer.create 512 in
  let obj fields emit =
    Buffer.add_char buf '{';
    List.iteri
      (fun i (name, v) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_string buf (Json.quote name);
        Buffer.add_char buf ':';
        emit v)
      fields;
    Buffer.add_char buf '}'
  in
  Buffer.add_string buf "{\"counters\":";
  obj (counters t) (fun v -> Buffer.add_string buf (string_of_int v));
  Buffer.add_string buf ",\"gauges\":";
  obj (gauges t) (fun v -> Buffer.add_string buf (Json.float_str v));
  Buffer.add_string buf ",\"histograms\":";
  obj
    (List.map (fun name -> (name, summarize t name)) (histogram_names t))
    (fun s ->
      Buffer.add_string buf
        (Printf.sprintf "{\"n\":%d,\"mean\":%s,\"min\":%s,\"max\":%s,\"p50\":%s,\"p95\":%s,\"p99\":%s}"
           s.n (Json.float_str s.mean) (Json.float_str s.min)
           (Json.float_str s.max) (Json.float_str s.p50)
           (Json.float_str s.p95) (Json.float_str s.p99)));
  Buffer.add_char buf '}';
  Buffer.contents buf

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun (name, v) -> Format.fprintf ppf "%-28s %d@," name v)
    (counters t);
  List.iter
    (fun (name, v) -> Format.fprintf ppf "%-28s %g@," name v)
    (gauges t);
  List.iter
    (fun name ->
      let s = summarize t name in
      Format.fprintf ppf
        "%-28s n=%d mean=%.4f min=%.4f p50=%.4f p95=%.4f p99=%.4f max=%.4f@,"
        name s.n s.mean s.min s.p50 s.p95 s.p99 s.max)
    (histogram_names t);
  Format.fprintf ppf "@]"

module For_testing = struct
  let counters = counters
  let gauges = gauges
  let summarize = summarize
  let histogram_names = histogram_names

  let gauge t name =
    match Hashtbl.find_opt t.gauges name with Some r -> Some !r | None -> None

  let quantile t name p =
    match Hashtbl.find_opt t.histograms name with
    | None -> nan
    | Some h -> hist_quantile h p
end
