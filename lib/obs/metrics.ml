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

(* A histogram's buckets are filled lazily: [record] updates n, sum, min
   and max at once and appends the sample to [pending], and the samples
   go into [buckets] on the first read or when [pending] is full.  A run
   that records a few hundred samples and is never read allocates no
   bucket array.  Bucket counts do not depend on the order samples
   arrive in, so every quantile is the one eager bucketing gives. *)
type histogram = {
  mutable buckets : int array; (* [||] until the first flush *)
  mutable pending : Float.Array.t; (* grows by doubling up to [max_pending] *)
  mutable npending : int;
  mutable h_n : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
}

(* Counters are numbered once per process: [key] gives each name its
   number, and a registry is an int array indexed by number, so a run
   resolves and bumps its counters without hashing a name.  A cell that
   was never bumped holds [absent], and [held] lists the keys whose
   cells do not. *)
type key = { id : int; name : string }

let keys : (string, key) Hashtbl.t = Hashtbl.create 64

let key name =
  match Hashtbl.find_opt keys name with
  | Some k -> k
  | None ->
      let k = { id = Hashtbl.length keys; name } in
      Hashtbl.add keys name k;
      k

let absent = min_int

type t = {
  mutable cells : int array; (* by key *)
  mutable held : key list;
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
    cells = Array.make (Hashtbl.length keys) absent;
    held = [];
    gauges = Hashtbl.create 8;
    histograms = Hashtbl.create 8;
  }

(* --- counters ------------------------------------------------------------ *)

(* Make room for [k]: cells only grow, so a key that fits once fits
   for good. *)
let ensure t k =
  let len = Array.length t.cells in
  if k.id >= len then begin
    let cells = Array.make (max (k.id + 1) (2 * len)) absent in
    Array.blit t.cells 0 cells 0 len;
    t.cells <- cells
  end

let bump_cell t k n =
  let v = t.cells.(k.id) in
  if v = absent then begin
    t.held <- k :: t.held;
    t.cells.(k.id) <- n
  end
  else t.cells.(k.id) <- v + n

let add t name n =
  let k = key name in
  ensure t k;
  bump_cell t k n

let incr t name = add t name 1

let count t name =
  match Hashtbl.find_opt keys name with
  | Some k when k.id < Array.length t.cells && t.cells.(k.id) <> absent ->
      t.cells.(k.id)
  | _ -> 0

let sorted_bindings tbl f =
  Hashtbl.fold (fun k v acc -> (k, f v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let counters t =
  List.map (fun k -> (k.name, t.cells.(k.id))) t.held
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* A handle is the registry and the key, its cell made room for at
   resolution, so a bump is the absent test and an add. *)
type counter = { owner : t; c_key : key }

let counter t k =
  ensure t k;
  { owner = t; c_key = k }

let bump_by c n = bump_cell c.owner c.c_key n
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
    buckets = [||];
    pending = Float.Array.create 0;
    npending = 0;
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

(* The pending buffer's bound: its largest size still allocates on the
   minor heap. *)
let max_pending = 256

(* Bucket the pending samples; every read goes through here. *)
let flush h =
  if Array.length h.buckets = 0 then h.buckets <- Array.make num_buckets 0;
  for j = 0 to h.npending - 1 do
    let i = bucket_of (Float.Array.get h.pending j) in
    h.buckets.(i) <- h.buckets.(i) + 1
  done;
  h.npending <- 0

let hist t name =
  match Hashtbl.find_opt t.histograms name with
  | Some h -> h
  | None ->
      let h = new_histogram () in
      Hashtbl.add t.histograms name h;
      h

let add_sample h v =
  let cap = Float.Array.length h.pending in
  if h.npending = cap then begin
    if cap = max_pending then flush h
    else begin
      let pending = Float.Array.create (max 16 (2 * cap)) in
      Float.Array.blit h.pending 0 pending 0 cap;
      h.pending <- pending
    end
  end;
  Float.Array.set h.pending h.npending v;
  h.npending <- h.npending + 1;
  h.h_n <- h.h_n + 1;
  h.h_sum <- h.h_sum +. v;
  if v < h.h_min then h.h_min <- v;
  if v > h.h_max then h.h_max <- v

(* Lazily registered like a counter: the histogram is looked up (or
   created) on the first recorded sample, then held. *)
type histogram_handle = {
  h_owner : t;
  h_name : string;
  mutable h_hist : histogram option;
}

let histogram t name = { h_owner = t; h_name = name; h_hist = None }

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
    flush h;
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
    List.iter
      (fun k ->
        ensure out k;
        bump_cell out k src.cells.(k.id))
      src.held
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
        flush h;
        let dst = hist out name in
        flush dst;
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
